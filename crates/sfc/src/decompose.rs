//! Greedy decomposition of a region into a minimum number of standard cubes.
//!
//! The paper's Lemma 3.3 proves that the greedy strategy — repeatedly carving
//! out the largest standard cube that fits inside the remaining region —
//! yields a partition of the region into a *minimum* number of standard
//! cubes. For axis-aligned rectangles the greedy partition can be computed
//! top-down over the implicit quadtree of the universe: starting from the
//! whole-universe cube, a standard cube that is fully inside the rectangle is
//! emitted, a cube that is disjoint from the rectangle is discarded, and a
//! cube that partially overlaps is split into its `2^d` children.
//!
//! This module provides the generic rectangle decomposition used for
//! verification, run counting (Figure 2) and small universes; the
//! specialized, lazily evaluated decomposition of *extremal* rectangles
//! (Lemma 3.4 / Algorithms 1–3), which the covering index uses on its hot
//! path, lives in [`crate::extremal`].

use crate::cube::StandardCube;
use crate::rect::Rect;
use crate::universe::Universe;
use crate::Result;

/// Decomposes an axis-aligned rectangle into the minimum number of standard
/// cubes (the greedy partition of Lemma 3.3), returned in no particular
/// order.
///
/// # Errors
///
/// Returns an error if the rectangle does not lie inside the universe.
///
/// # Complexity
///
/// The output size equals `cubes(rect)`, which for a `d`-dimensional
/// rectangle is proportional to its surface measured in cells (Section 4);
/// callers that only need the largest cubes should use
/// [`crate::extremal::ExtremalCubes`] instead, which enumerates lazily.
///
/// # Example
///
/// ```
/// use acd_sfc::{Universe, Rect, decompose::decompose_rect};
/// # fn main() -> Result<(), acd_sfc::SfcError> {
/// let u = Universe::new(2, 4)?;
/// // A 3x2 rectangle decomposes into one 2x2 cube plus two unit cells.
/// let rect = Rect::new(vec![0, 0], vec![2, 1])?;
/// let cubes = decompose_rect(&u, &rect)?;
/// assert_eq!(cubes.len(), 3);
/// let total: u128 = cubes.iter().map(|c| c.volume().unwrap()).sum();
/// assert_eq!(total, rect.volume().unwrap());
/// # Ok(())
/// # }
/// ```
pub fn decompose_rect(universe: &Universe, rect: &Rect) -> Result<Vec<StandardCube>> {
    rect.validate_in(universe)?;
    let mut out = Vec::new();
    let root = StandardCube::whole_universe(universe);
    decompose_into(rect, &root, &mut out);
    Ok(out)
}

fn decompose_into(rect: &Rect, cube: &StandardCube, out: &mut Vec<StandardCube>) {
    let cube_rect = cube.to_rect();
    if !rect.overlaps(&cube_rect) {
        return;
    }
    if rect.contains_rect(&cube_rect) {
        out.push(cube.clone());
        return;
    }
    // Partial overlap: the cube cannot be a cell (a cell either overlaps
    // fully or not at all), so children always exist.
    let children = cube
        .children()
        .expect("partially overlapping cube has side > 1");
    for child in children {
        decompose_into(rect, &child, out);
    }
}

/// The number of standard cubes in the greedy (minimum) partition of `rect`,
/// i.e. the paper's `cubes(rect)`.
///
/// # Errors
///
/// Returns an error if the rectangle does not lie inside the universe.
pub fn count_cubes(universe: &Universe, rect: &Rect) -> Result<u64> {
    rect.validate_in(universe)?;
    let root = StandardCube::whole_universe(universe);
    Ok(count_into(rect, &root))
}

fn count_into(rect: &Rect, cube: &StandardCube) -> u64 {
    let cube_rect = cube.to_rect();
    if !rect.overlaps(&cube_rect) {
        return 0;
    }
    if rect.contains_rect(&cube_rect) {
        return 1;
    }
    cube.children()
        .expect("partially overlapping cube has side > 1")
        .iter()
        .map(|child| count_into(rect, child))
        .sum()
}

/// Groups a set of standard cubes by `side_exp` (the paper's `D_i` sets) and
/// returns `(side_exp, count)` pairs sorted by decreasing side length.
pub fn histogram_by_level(cubes: &[StandardCube]) -> Vec<(u32, u64)> {
    use std::collections::BTreeMap;
    let mut hist: BTreeMap<u32, u64> = BTreeMap::new();
    for c in cubes {
        *hist.entry(c.side_exp()).or_insert(0) += 1;
    }
    hist.into_iter().rev().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::universe::Point;

    fn universe(d: usize, k: u32) -> Universe {
        Universe::new(d, k).unwrap()
    }

    /// Checks that a decomposition exactly tiles the rectangle: disjoint
    /// cubes whose union is the rectangle.
    fn assert_exact_tiling(u: &Universe, rect: &Rect, cubes: &[StandardCube]) {
        let total: u128 = cubes.iter().map(|c| c.volume().unwrap()).sum();
        assert_eq!(total, rect.volume().unwrap(), "volumes must add up");
        for c in cubes {
            assert!(rect.contains_rect(&c.to_rect()), "{c} sticks out of {rect}");
        }
        for (i, a) in cubes.iter().enumerate() {
            for b in cubes.iter().skip(i + 1) {
                assert!(!a.to_rect().overlaps(&b.to_rect()), "{a} and {b} overlap");
            }
        }
        // Spot-check membership for small universes.
        if u.volume().unwrap_or(u128::MAX) <= 4096 {
            let side = u.side();
            let d = u.dims();
            let total_cells = side.pow(d as u32);
            for idx in 0..total_cells {
                let mut coords = vec![0u64; d];
                let mut rem = idx;
                for coord in coords.iter_mut() {
                    *coord = rem % side;
                    rem /= side;
                }
                let inside_rect = rect.contains_coords(&coords);
                let inside_cubes = cubes.iter().any(|c| c.contains_coords(&coords));
                assert_eq!(inside_rect, inside_cubes, "cell {coords:?}");
            }
        }
    }

    #[test]
    fn aligned_square_is_a_single_cube() {
        let u = universe(2, 8);
        // The paper's first example region of Figure 2: a 256x256 square
        // aligned at the origin is exactly one standard cube.
        let rect = Rect::new(vec![0, 0], vec![255, 255]).unwrap();
        let cubes = decompose_rect(&u, &rect).unwrap();
        assert_eq!(cubes.len(), 1);
        assert_eq!(cubes[0].side_exp(), 8);
    }

    #[test]
    fn figure_2_example_257_square_cubes() {
        // The paper's second example region of Figure 2: a 257x257 extremal
        // square consists of one 256x256 standard cube plus an L-shaped strip
        // of width 1 (513 unit cells), i.e. 514 standard cubes. After merging
        // adjacent key ranges these collapse to the 385 runs quoted in the
        // paper (verified in the `runs` module).
        let u = universe(2, 10);
        let rect = Rect::new(vec![1023 - 256, 1023 - 256], vec![1023, 1023]).unwrap();
        assert_eq!(rect.side_lengths(), vec![257, 257]);
        let cubes = decompose_rect(&u, &rect).unwrap();
        assert_eq!(cubes.len(), 514);
        let hist = histogram_by_level(&cubes);
        assert_eq!(hist, vec![(8, 1), (0, 513)]);
        assert_exact_tiling(&u, &rect, &cubes);
    }

    #[test]
    fn three_by_two_decomposition() {
        let u = universe(2, 4);
        let rect = Rect::new(vec![0, 0], vec![2, 1]).unwrap();
        let cubes = decompose_rect(&u, &rect).unwrap();
        assert_eq!(cubes.len(), 3);
        assert_exact_tiling(&u, &rect, &cubes);
        assert_eq!(count_cubes(&u, &rect).unwrap(), 3);
    }

    #[test]
    fn single_cell_rectangles() {
        let u = universe(3, 4);
        let p = Point::new(vec![7, 11, 2]).unwrap();
        let rect = Rect::from_point(&p);
        let cubes = decompose_rect(&u, &rect).unwrap();
        assert_eq!(cubes.len(), 1);
        assert_eq!(cubes[0].volume(), Some(1));
    }

    #[test]
    fn full_universe_is_one_cube() {
        let u = universe(3, 3);
        let rect = Rect::full(&u);
        assert_eq!(count_cubes(&u, &rect).unwrap(), 1);
    }

    #[test]
    fn random_rectangles_tile_exactly() {
        // Deterministic pseudo-random rectangles in a small universe.
        let u = universe(2, 5);
        let mut state = 0x12345678u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..40 {
            let (a, b) = (next() % 32, next() % 32);
            let (c, d) = (next() % 32, next() % 32);
            let rect = Rect::new(vec![a.min(b), c.min(d)], vec![a.max(b), c.max(d)]).unwrap();
            let cubes = decompose_rect(&u, &rect).unwrap();
            assert_exact_tiling(&u, &rect, &cubes);
            assert_eq!(count_cubes(&u, &rect).unwrap(), cubes.len() as u64);
        }
    }

    #[test]
    fn decomposition_is_greedy_optimal_for_known_cases() {
        let u = universe(2, 4);
        // An 8x8 aligned block: exactly 1 cube even though it could also be
        // tiled by 64 cells.
        let rect = Rect::new(vec![8, 0], vec![15, 7]).unwrap();
        assert_eq!(count_cubes(&u, &rect).unwrap(), 1);
        // An 8x7 block (one row short of an aligned 8x8): the greedy
        // partition uses two 4x4 cubes, four 2x2 cubes and eight unit cells.
        let rect = Rect::new(vec![8, 0], vec![15, 6]).unwrap();
        let cubes = decompose_rect(&u, &rect).unwrap();
        assert_exact_tiling(&u, &rect, &cubes);
        assert_eq!(cubes.len(), 2 + 4 + 8);
        assert_eq!(histogram_by_level(&cubes), vec![(2, 2), (1, 4), (0, 8)]);
    }

    #[test]
    fn histogram_orders_levels_by_decreasing_size() {
        let u = universe(2, 4);
        let rect = Rect::new(vec![0, 0], vec![6, 6]).unwrap();
        let cubes = decompose_rect(&u, &rect).unwrap();
        let hist = histogram_by_level(&cubes);
        let exps: Vec<u32> = hist.iter().map(|&(e, _)| e).collect();
        let mut sorted = exps.clone();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        assert_eq!(exps, sorted);
        let total: u64 = hist.iter().map(|&(_, n)| n).sum();
        assert_eq!(total, cubes.len() as u64);
    }

    #[test]
    fn out_of_universe_rectangle_rejected() {
        let u = universe(2, 3);
        let rect = Rect::new(vec![0, 0], vec![8, 3]).unwrap();
        assert!(decompose_rect(&u, &rect).is_err());
        assert!(count_cubes(&u, &rect).is_err());
    }
}
