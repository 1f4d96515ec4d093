//! The discrete universe in which subscriptions and events live, and points
//! within it.
//!
//! The paper models the indexed space as a `d`-dimensional grid
//! `2^k × 2^k × … × 2^k`; every element of the grid is a *cell*. Both `d`
//! (which is twice the number of subscription attributes) and `k` (bits of
//! precision per dimension) are parameters of the [`Universe`].

use std::fmt;
use std::sync::Arc;

use crate::error::SfcError;
use crate::Result;

/// Shape of the indexed space: `dims` dimensions, each with `2^bits_per_dim`
/// discrete values.
///
/// A `Universe` is cheap to clone (its description is a pair of integers
/// wrapped in an [`Arc`] internally is unnecessary — it is plain data) and is
/// carried by every curve, rectangle and index that needs to validate its
/// inputs.
///
/// # Example
///
/// ```
/// use acd_sfc::Universe;
/// # fn main() -> Result<(), acd_sfc::SfcError> {
/// let u = Universe::new(4, 10)?;
/// assert_eq!(u.dims(), 4);
/// assert_eq!(u.side(), 1024);
/// assert_eq!(u.max_coord(), 1023);
/// assert_eq!(u.key_bits(), 40);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Universe {
    dims: usize,
    bits_per_dim: u32,
}

/// Maximum number of dimensions supported by the substrate.
///
/// The limit is generous: a subscription with 16 attributes maps to a
/// 32-dimensional dominance problem, well below this cap.
pub const MAX_DIMS: usize = 64;

/// Maximum number of bits per dimension supported by the substrate.
pub const MAX_BITS_PER_DIM: u32 = 62;

impl Universe {
    /// Creates a universe with `dims` dimensions and `bits_per_dim` bits of
    /// precision per dimension (so each dimension ranges over
    /// `0..2^bits_per_dim`).
    ///
    /// # Errors
    ///
    /// Returns [`SfcError::InvalidUniverse`] if `dims` is zero or larger than
    /// [`MAX_DIMS`], or if `bits_per_dim` is zero or larger than
    /// [`MAX_BITS_PER_DIM`].
    pub fn new(dims: usize, bits_per_dim: u32) -> Result<Self> {
        if dims == 0 || dims > MAX_DIMS {
            return Err(SfcError::InvalidUniverse {
                dims,
                bits_per_dim,
                reason: "number of dimensions must be between 1 and 64",
            });
        }
        if bits_per_dim == 0 || bits_per_dim > MAX_BITS_PER_DIM {
            return Err(SfcError::InvalidUniverse {
                dims,
                bits_per_dim,
                reason: "bits per dimension must be between 1 and 62",
            });
        }
        Ok(Universe { dims, bits_per_dim })
    }

    /// Number of dimensions `d`.
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Bits of precision per dimension (`k` in the paper).
    pub fn bits_per_dim(&self) -> u32 {
        self.bits_per_dim
    }

    /// Number of cells along each dimension, i.e. `2^k`.
    pub fn side(&self) -> u64 {
        1u64 << self.bits_per_dim
    }

    /// Largest valid coordinate along any dimension, i.e. `2^k − 1`.
    pub fn max_coord(&self) -> u64 {
        self.side() - 1
    }

    /// Total number of bits in an SFC key for this universe (`d·k`).
    pub fn key_bits(&self) -> u32 {
        self.dims as u32 * self.bits_per_dim
    }

    /// Natural logarithm of the total number of cells, `ln(2^{d·k})`.
    ///
    /// Volumes in this crate are tracked in log-space because `2^{d·k}` can
    /// easily overflow even a `u128`.
    pub fn ln_volume(&self) -> f64 {
        self.key_bits() as f64 * std::f64::consts::LN_2
    }

    /// Total number of cells if it fits in a `u128`.
    pub fn volume(&self) -> Option<u128> {
        if self.key_bits() <= 127 {
            Some(1u128 << self.key_bits())
        } else {
            None
        }
    }

    /// Returns `true` if `value` is a valid coordinate in this universe.
    pub fn contains_coord(&self, value: u64) -> bool {
        value <= self.max_coord()
    }

    /// Validates that `point` belongs to this universe.
    ///
    /// # Errors
    ///
    /// Returns [`SfcError::DimensionMismatch`] or
    /// [`SfcError::CoordinateOutOfRange`].
    pub fn validate_point(&self, point: &Point) -> Result<()> {
        if point.dims() != self.dims {
            return Err(SfcError::DimensionMismatch {
                expected: self.dims,
                actual: point.dims(),
            });
        }
        for (dim, &c) in point.coords().iter().enumerate() {
            if !self.contains_coord(c) {
                return Err(SfcError::CoordinateOutOfRange {
                    dim,
                    value: c,
                    bound: self.side(),
                });
            }
        }
        Ok(())
    }

    /// The point at the origin `(0, 0, …, 0)`.
    pub fn origin(&self) -> Point {
        Point::from_fn(self.dims, |_| 0)
    }

    /// The point at the far corner `(2^k − 1, …, 2^k − 1)`.
    pub fn top_corner(&self) -> Point {
        let max = self.max_coord();
        Point::from_fn(self.dims, |_| max)
    }
}

impl fmt::Display for Universe {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}^{}", self.side(), self.dims)
    }
}

/// The number of coordinates a [`Point`] stores inline (without heap
/// allocation). Covers the common dominance shapes: up to 4 subscription
/// attributes map to `d = 2β ≤ 8` dimensions.
pub const POINT_INLINE_DIMS: usize = 8;

/// The coordinate storage of a [`Point`]: a fixed inline buffer for the
/// common low-dimensional case, an `Arc`-shared vector for wider points
/// (which stay cheap to clone).
#[derive(Debug, Clone)]
enum Coords {
    Inline {
        len: u8,
        buf: [u64; POINT_INLINE_DIMS],
    },
    Spill(Arc<Vec<u64>>),
}

/// A cell of the universe: a `d`-dimensional point with `u64` coordinates.
///
/// Points are immutable and cheap to clone: up to [`POINT_INLINE_DIMS`]
/// coordinates are stored inline (construction and cloning never allocate),
/// wider points share their coordinate vector behind an [`Arc`].
/// Construction validates nothing beyond non-emptiness; range validation
/// against a particular universe is performed by
/// [`Universe::validate_point`] or by the curve that encodes the point.
///
/// # Example
///
/// ```
/// use acd_sfc::Point;
/// # fn main() -> Result<(), acd_sfc::SfcError> {
/// let p = Point::new(vec![1, 2, 3])?;
/// assert_eq!(p.dims(), 3);
/// assert_eq!(p.coord(1), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Point {
    coords: Coords,
}

impl Point {
    /// Creates a point from its coordinates.
    ///
    /// # Errors
    ///
    /// Returns [`SfcError::Empty`] if `coords` is empty.
    pub fn new(coords: Vec<u64>) -> Result<Self> {
        if coords.is_empty() {
            return Err(SfcError::Empty);
        }
        Ok(Self::from_vec(coords))
    }

    /// Creates a point without validating that the coordinate vector is
    /// non-empty. Intended for internal use where the invariant is known.
    pub(crate) fn from_vec(coords: Vec<u64>) -> Self {
        debug_assert!(!coords.is_empty());
        if coords.len() <= POINT_INLINE_DIMS {
            Self::from_slice(&coords)
        } else {
            Point {
                coords: Coords::Spill(Arc::new(coords)),
            }
        }
    }

    /// Creates a point by copying a coordinate slice — allocation-free when
    /// the slice fits the inline buffer.
    pub(crate) fn from_slice(coords: &[u64]) -> Self {
        debug_assert!(!coords.is_empty());
        if coords.len() <= POINT_INLINE_DIMS {
            let mut buf = [0u64; POINT_INLINE_DIMS];
            buf[..coords.len()].copy_from_slice(coords);
            Point {
                coords: Coords::Inline {
                    len: coords.len() as u8,
                    buf,
                },
            }
        } else {
            Point {
                coords: Coords::Spill(Arc::new(coords.to_vec())),
            }
        }
    }

    /// Creates a point whose coordinate along dimension `i` is `f(i)` —
    /// allocation-free when `dims` fits the inline buffer. The hot-path
    /// constructor for derived points (dominance transforms).
    ///
    /// `f` is called exactly once per dimension, in ascending order, so
    /// callers may drive a stateful iterator from it.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `dims` is zero.
    pub fn build(dims: usize, f: impl FnMut(usize) -> u64) -> Self {
        Self::from_fn(dims, f)
    }

    /// Creates a point whose coordinate along dimension `i` is `f(i)` —
    /// allocation-free when `dims` fits the inline buffer.
    pub(crate) fn from_fn(dims: usize, mut f: impl FnMut(usize) -> u64) -> Self {
        debug_assert!(dims > 0);
        if dims <= POINT_INLINE_DIMS {
            let mut buf = [0u64; POINT_INLINE_DIMS];
            for (i, c) in buf[..dims].iter_mut().enumerate() {
                *c = f(i);
            }
            Point {
                coords: Coords::Inline {
                    len: dims as u8,
                    buf,
                },
            }
        } else {
            Point {
                coords: Coords::Spill(Arc::new((0..dims).map(f).collect())),
            }
        }
    }

    /// Number of dimensions of this point.
    pub fn dims(&self) -> usize {
        self.coords().len()
    }

    /// The coordinate along dimension `dim`.
    ///
    /// # Panics
    ///
    /// Panics if `dim >= self.dims()`.
    pub fn coord(&self, dim: usize) -> u64 {
        self.coords()[dim]
    }

    /// All coordinates as a slice.
    pub fn coords(&self) -> &[u64] {
        match &self.coords {
            Coords::Inline { len, buf } => &buf[..*len as usize],
            Coords::Spill(v) => v,
        }
    }

    /// Whether this point uses the inline (allocation-free) coordinate
    /// buffer. Exposed for the representation property tests.
    #[doc(hidden)]
    pub fn repr_is_inline(&self) -> bool {
        matches!(self.coords, Coords::Inline { .. })
    }

    /// Returns `true` if every coordinate of `self` is greater than or equal
    /// to the corresponding coordinate of `other`.
    ///
    /// This is exactly the *dominance* relation of the paper's Problem 1: a
    /// point `p(s1)` dominating `p(s2)` corresponds to subscription `s1`
    /// covering `s2`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the two points have different dimensions.
    pub fn dominates(&self, other: &Point) -> bool {
        debug_assert_eq!(self.dims(), other.dims());
        self.coords()
            .iter()
            .zip(other.coords().iter())
            .all(|(a, b)| a >= b)
    }
}

impl PartialEq for Point {
    fn eq(&self, other: &Self) -> bool {
        self.coords() == other.coords()
    }
}

impl Eq for Point {}

impl std::hash::Hash for Point {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        // Hash the coordinate slice so both storage layouts of the same
        // point hash identically (matches the derived `Vec<u64>` hashing).
        self.coords().hash(state);
    }
}

impl PartialOrd for Point {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Point {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.coords().cmp(other.coords())
    }
}

impl fmt::Display for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, c) in self.coords().iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{c}")?;
        }
        write!(f, ")")
    }
}

impl From<Point> for Vec<u64> {
    fn from(p: Point) -> Vec<u64> {
        match p.coords {
            Coords::Inline { len, buf } => buf[..len as usize].to_vec(),
            Coords::Spill(v) => Arc::try_unwrap(v).unwrap_or_else(|arc| arc.as_ref().clone()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn universe_basic_accessors() {
        let u = Universe::new(3, 4).unwrap();
        assert_eq!(u.dims(), 3);
        assert_eq!(u.bits_per_dim(), 4);
        assert_eq!(u.side(), 16);
        assert_eq!(u.max_coord(), 15);
        assert_eq!(u.key_bits(), 12);
        assert_eq!(u.volume(), Some(4096));
        assert_eq!(u.to_string(), "16^3");
    }

    #[test]
    fn universe_rejects_bad_shapes() {
        assert!(Universe::new(0, 4).is_err());
        assert!(Universe::new(4, 0).is_err());
        assert!(Universe::new(65, 4).is_err());
        assert!(Universe::new(4, 63).is_err());
        assert!(Universe::new(64, 62).is_ok());
    }

    #[test]
    fn huge_universe_volume_overflows_to_none() {
        let u = Universe::new(16, 16).unwrap(); // 256-bit keys
        assert_eq!(u.volume(), None);
        assert!(u.ln_volume() > 0.0);
    }

    #[test]
    fn ln_volume_matches_exact_volume_when_small() {
        let u = Universe::new(2, 8).unwrap();
        let exact = (u.volume().unwrap() as f64).ln();
        assert!((u.ln_volume() - exact).abs() < 1e-9);
    }

    #[test]
    fn point_validation() {
        let u = Universe::new(2, 4).unwrap();
        let ok = Point::new(vec![0, 15]).unwrap();
        assert!(u.validate_point(&ok).is_ok());

        let wrong_dims = Point::new(vec![0, 1, 2]).unwrap();
        assert!(matches!(
            u.validate_point(&wrong_dims),
            Err(SfcError::DimensionMismatch { .. })
        ));

        let out_of_range = Point::new(vec![0, 16]).unwrap();
        assert!(matches!(
            u.validate_point(&out_of_range),
            Err(SfcError::CoordinateOutOfRange { dim: 1, .. })
        ));
    }

    #[test]
    fn empty_point_rejected() {
        assert!(matches!(Point::new(vec![]), Err(SfcError::Empty)));
    }

    #[test]
    fn dominance_relation() {
        let a = Point::new(vec![5, 5]).unwrap();
        let b = Point::new(vec![3, 5]).unwrap();
        let c = Point::new(vec![6, 4]).unwrap();
        assert!(a.dominates(&b));
        assert!(!b.dominates(&a));
        assert!(a.dominates(&a), "dominance is reflexive");
        assert!(!a.dominates(&c));
        assert!(!c.dominates(&a));
    }

    #[test]
    fn origin_and_top_corner() {
        let u = Universe::new(3, 3).unwrap();
        assert_eq!(u.origin().coords(), &[0, 0, 0]);
        assert_eq!(u.top_corner().coords(), &[7, 7, 7]);
        assert!(u.top_corner().dominates(&u.origin()));
    }

    #[test]
    fn point_display_and_conversion() {
        let p = Point::new(vec![1, 2]).unwrap();
        assert_eq!(p.to_string(), "(1, 2)");
        let v: Vec<u64> = p.into();
        assert_eq!(v, vec![1, 2]);
    }
}
