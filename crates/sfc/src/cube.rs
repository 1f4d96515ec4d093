//! Standard cubes: the building blocks of recursive space partitioning.
//!
//! The universe is recursively bisected along every dimension; a cube
//! produced after `ℓ` rounds of bisection is a *standard cube at level `ℓ`*
//! with side length `2^{k − ℓ}`. Standard cubes are either nested or disjoint
//! (Lemma 2.1) and each standard cube occupies a single contiguous run of
//! keys on every recursive space filling curve (Fact 2.1).

use std::fmt;

use crate::error::SfcError;
use crate::rect::Rect;
use crate::universe::{Point, Universe};
use crate::Result;

/// A standard cube: an axis-aligned cube whose side length is a power of two
/// and whose lower corner is aligned to that power of two.
///
/// `side_exp` is the base-2 logarithm of the side length (the paper's `i` for
/// a cube in `D_i`), so the cube's level in the recursive partition is
/// `k − side_exp`.
///
/// # Example
///
/// ```
/// use acd_sfc::{StandardCube, Universe};
/// # fn main() -> Result<(), acd_sfc::SfcError> {
/// let u = Universe::new(2, 4)?;
/// let c = StandardCube::new(&u, vec![4, 8], 2)?; // a 4x4 cube at (4, 8)
/// assert_eq!(c.side_length(), 4);
/// assert_eq!(c.level(), 2);
/// assert_eq!(c.volume(), Some(16));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct StandardCube {
    /// Lower corner of the cube; every coordinate is a multiple of
    /// `2^side_exp`.
    corner: Vec<u64>,
    /// log2 of the side length.
    side_exp: u32,
    /// Bits per dimension of the owning universe (needed to compute levels).
    bits_per_dim: u32,
}

impl StandardCube {
    /// Creates a standard cube with the given lower corner and side length
    /// `2^side_exp`.
    ///
    /// # Errors
    ///
    /// Returns an error if the corner has the wrong dimension, is not aligned
    /// to `2^side_exp`, or the cube does not fit inside the universe.
    pub fn new(universe: &Universe, corner: Vec<u64>, side_exp: u32) -> Result<Self> {
        if corner.len() != universe.dims() {
            return Err(SfcError::DimensionMismatch {
                expected: universe.dims(),
                actual: corner.len(),
            });
        }
        if side_exp > universe.bits_per_dim() {
            return Err(SfcError::InvalidSideLength {
                dim: 0,
                length: 1u64.checked_shl(side_exp).unwrap_or(u64::MAX),
                bound: universe.side(),
            });
        }
        let side = 1u64 << side_exp;
        for (dim, &c) in corner.iter().enumerate() {
            if c % side != 0 {
                return Err(SfcError::CoordinateOutOfRange {
                    dim,
                    value: c,
                    bound: universe.side(),
                });
            }
            if c + side - 1 > universe.max_coord() {
                return Err(SfcError::CoordinateOutOfRange {
                    dim,
                    value: c + side - 1,
                    bound: universe.side(),
                });
            }
        }
        Ok(StandardCube {
            corner,
            side_exp,
            bits_per_dim: universe.bits_per_dim(),
        })
    }

    /// The unit cube (a single cell) at `point`.
    ///
    /// # Errors
    ///
    /// Returns an error if the point is outside the universe.
    pub fn cell(universe: &Universe, point: &Point) -> Result<Self> {
        universe.validate_point(point)?;
        StandardCube::new(universe, point.coords().to_vec(), 0)
    }

    /// The standard cube covering the entire universe (level 0).
    pub fn whole_universe(universe: &Universe) -> Self {
        StandardCube {
            corner: vec![0; universe.dims()],
            side_exp: universe.bits_per_dim(),
            bits_per_dim: universe.bits_per_dim(),
        }
    }

    /// The lower corner of the cube.
    pub fn corner(&self) -> &[u64] {
        &self.corner
    }

    /// Number of dimensions.
    pub fn dims(&self) -> usize {
        self.corner.len()
    }

    /// Base-2 logarithm of the side length (the paper's `i` for `D_i`).
    pub fn side_exp(&self) -> u32 {
        self.side_exp
    }

    /// Side length of the cube (`2^side_exp`).
    pub fn side_length(&self) -> u64 {
        1u64 << self.side_exp
    }

    /// Level of the cube in the recursive partition: `k − side_exp`.
    /// Level 0 is the whole universe; level `k` is a single cell.
    pub fn level(&self) -> u32 {
        self.bits_per_dim - self.side_exp
    }

    /// Number of cells in the cube, if it fits in a `u128`.
    pub fn volume(&self) -> Option<u128> {
        let total_bits = self.side_exp as u64 * self.dims() as u64;
        if total_bits <= 127 {
            Some(1u128 << total_bits)
        } else {
            None
        }
    }

    /// Natural logarithm of the number of cells.
    pub fn ln_volume(&self) -> f64 {
        self.side_exp as f64 * self.dims() as f64 * std::f64::consts::LN_2
    }

    /// The cube as an ordinary rectangle.
    pub fn to_rect(&self) -> Rect {
        let side = self.side_length();
        let hi: Vec<u64> = self.corner.iter().map(|&c| c + side - 1).collect();
        Rect::new(self.corner.clone(), hi).expect("standard cube is a valid rectangle")
    }

    /// Whether the cube contains the given cell.
    pub fn contains_coords(&self, coords: &[u64]) -> bool {
        let side = self.side_length();
        coords.len() == self.dims()
            && coords
                .iter()
                .zip(self.corner.iter())
                .all(|(&c, &lo)| c >= lo && c < lo + side)
    }

    /// Whether this cube fully contains `other`. Per Lemma 2.1 two standard
    /// cubes are either nested or disjoint, so `a.contains_cube(b)`,
    /// `b.contains_cube(a)` and disjointness are the only possibilities.
    pub fn contains_cube(&self, other: &StandardCube) -> bool {
        self.side_exp >= other.side_exp && self.contains_coords(other.corner())
    }

    /// Whether the two cubes share at least one cell.
    pub fn overlaps(&self, other: &StandardCube) -> bool {
        self.contains_cube(other) || other.contains_cube(self)
    }

    /// The lowest-indexed cell of the cube (its lower corner) as a point.
    pub fn corner_point(&self) -> Point {
        Point::from_vec(self.corner.clone())
    }

    /// The `2^d` child cubes produced by one further bisection, or `None` if
    /// the cube is already a single cell.
    pub fn children(&self) -> Option<Vec<StandardCube>> {
        if self.side_exp == 0 {
            return None;
        }
        let child_exp = self.side_exp - 1;
        let half = 1u64 << child_exp;
        let d = self.dims();
        let mut out = Vec::with_capacity(1 << d);
        for mask in 0u64..(1u64 << d) {
            let corner: Vec<u64> = (0..d)
                .map(|dim| self.corner[dim] + if (mask >> dim) & 1 == 1 { half } else { 0 })
                .collect();
            out.push(StandardCube {
                corner,
                side_exp: child_exp,
                bits_per_dim: self.bits_per_dim,
            });
        }
        Some(out)
    }
}

impl fmt::Display for StandardCube {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cube@(")?;
        for (i, c) in self.corner.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{c}")?;
        }
        write!(f, ") side 2^{}", self.side_exp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn universe(d: usize, k: u32) -> Universe {
        Universe::new(d, k).unwrap()
    }

    #[test]
    fn construction_and_accessors() {
        let u = universe(2, 4);
        let c = StandardCube::new(&u, vec![8, 12], 2).unwrap();
        assert_eq!(c.side_length(), 4);
        assert_eq!(c.level(), 2);
        assert_eq!(c.volume(), Some(16));
        assert_eq!(c.to_rect(), Rect::new(vec![8, 12], vec![11, 15]).unwrap());
        assert_eq!(c.to_string(), "cube@(8, 12) side 2^2");
    }

    #[test]
    fn rejects_misaligned_or_oversized_cubes() {
        let u = universe(2, 4);
        assert!(StandardCube::new(&u, vec![3, 0], 2).is_err(), "misaligned");
        assert!(StandardCube::new(&u, vec![0, 0], 5).is_err(), "too large");
        assert!(StandardCube::new(&u, vec![0], 1).is_err(), "wrong dims");
        assert!(StandardCube::new(&u, vec![16, 0], 0).is_err(), "outside");
    }

    #[test]
    fn whole_universe_and_cells() {
        let u = universe(3, 3);
        let whole = StandardCube::whole_universe(&u);
        assert_eq!(whole.level(), 0);
        assert_eq!(whole.volume(), u.volume());
        let cell = StandardCube::cell(&u, &Point::new(vec![1, 2, 3]).unwrap()).unwrap();
        assert_eq!(cell.level(), 3);
        assert_eq!(cell.volume(), Some(1));
        assert!(whole.contains_cube(&cell));
    }

    #[test]
    fn nesting_or_disjoint_lemma_2_1() {
        let u = universe(2, 4);
        let big = StandardCube::new(&u, vec![0, 0], 3).unwrap();
        let inner = StandardCube::new(&u, vec![4, 4], 2).unwrap();
        let outside = StandardCube::new(&u, vec![8, 0], 3).unwrap();
        assert!(big.contains_cube(&inner));
        assert!(!inner.contains_cube(&big));
        assert!(big.overlaps(&inner));
        assert!(!big.overlaps(&outside));
        // Exhaustive check of Lemma 2.1 over all standard cubes of a small
        // universe: any two cubes are nested or disjoint.
        let mut all = vec![];
        for exp in 0..=2u32 {
            let side = 1u64 << exp;
            let mut x = 0;
            while x < 4 {
                let mut y = 0;
                while y < 4 {
                    all.push(StandardCube::new(&universe(2, 2), vec![x, y], exp).unwrap());
                    y += side;
                }
                x += side;
            }
        }
        for a in &all {
            for b in &all {
                let nested = a.contains_cube(b) || b.contains_cube(a);
                let disjoint = !a.to_rect().overlaps(&b.to_rect());
                assert!(nested || disjoint, "{a} vs {b}");
            }
        }
    }

    #[test]
    fn children_partition_the_parent() {
        let u = universe(3, 4);
        let c = StandardCube::new(&u, vec![8, 0, 8], 3).unwrap();
        let children = c.children().unwrap();
        assert_eq!(children.len(), 8);
        let child_vol: u128 = children.iter().map(|ch| ch.volume().unwrap()).sum();
        assert_eq!(child_vol, c.volume().unwrap());
        for ch in &children {
            assert!(c.contains_cube(ch));
            assert_eq!(ch.side_exp(), 2);
        }
        // Children are pairwise disjoint.
        for (i, a) in children.iter().enumerate() {
            for b in children.iter().skip(i + 1) {
                assert!(!a.to_rect().overlaps(&b.to_rect()));
            }
        }
        let cell = StandardCube::new(&u, vec![1, 1, 1], 0).unwrap();
        assert!(cell.children().is_none());
    }

    #[test]
    fn huge_cube_volume_is_none_but_ln_volume_works() {
        let u = universe(32, 8);
        let whole = StandardCube::whole_universe(&u);
        assert_eq!(whole.volume(), None);
        assert!((whole.ln_volume() - 256.0 * std::f64::consts::LN_2).abs() < 1e-9);
    }
}
