//! Lazy greedy decomposition of *extremal* rectangles (Lemma 3.4 and the
//! paper's Algorithms 1–3).
//!
//! A point-dominance query searches an extremal rectangle `R(ℓ)`. Its greedy
//! (minimum) partition into standard cubes has a very regular structure
//! (Lemma 3.4): letting `b(ℓ_min)` be the bit length of the shortest side,
//! the partition contains cubes of side `2^i` only for
//! `i < b(ℓ_min)`, and the cubes of side `2^i` or larger exactly tile the
//! extremal rectangle `R(S_i(ℓ))`. The cubes of side `2^i` therefore tile the
//! difference `R(S_i(ℓ)) − R(S_{i+1}(ℓ))`, which is a union of at most `d`
//! axis-aligned boxes of `2^i`-cubes.
//!
//! [`ExtremalCubes`] materializes only this *description* (O(d·k) boxes) and
//! enumerates the actual cubes lazily, largest first, which is exactly the
//! order the approximate point-dominance query wants. The number of cubes per
//! level is available analytically through [`LevelCubes::count`]
//! (Lemma 3.5's `N_i`) without enumerating anything.

use crate::bits;
use crate::cube::StandardCube;
use crate::rect::ExtremalRect;
use crate::universe::Universe;

/// One sub-box of `2^i`-cubes: a product of per-dimension grid-offset ranges
/// `[lo_j, hi_j)` measured in units of `2^i` cells from the universe's top
/// corner.
#[derive(Debug, Clone, PartialEq, Eq)]
struct GridBox {
    /// Per-dimension `[lo, hi)` ranges in grid units.
    ranges: Vec<(u64, u64)>,
}

impl GridBox {
    fn count(&self) -> Option<u128> {
        let mut n: u128 = 1;
        for &(lo, hi) in &self.ranges {
            n = n.checked_mul((hi - lo) as u128)?;
        }
        Some(n)
    }

    fn ln_count(&self) -> f64 {
        self.ranges
            .iter()
            .map(|&(lo, hi)| ((hi - lo) as f64).ln())
            .sum()
    }

    fn is_empty(&self) -> bool {
        self.ranges.iter().any(|&(lo, hi)| lo >= hi)
    }
}

/// The cubes of one level (`D_i` in the paper) of the greedy decomposition of
/// an extremal rectangle, enumerable lazily.
#[derive(Debug, Clone)]
pub struct LevelCubes {
    universe: Universe,
    side_exp: u32,
    boxes: Vec<GridBox>,
}

impl LevelCubes {
    /// `log2` of the side length of every cube at this level (the paper's
    /// `i`).
    pub fn side_exp(&self) -> u32 {
        self.side_exp
    }

    /// Number of cubes at this level (the paper's `N_i`), if it fits in a
    /// `u128`.
    pub fn count(&self) -> Option<u128> {
        let mut total: u128 = 0;
        for b in &self.boxes {
            total = total.checked_add(b.count()?)?;
        }
        Some(total)
    }

    /// Number of cubes at this level as a float (never overflows).
    pub fn count_f64(&self) -> f64 {
        self.boxes.iter().map(|b| b.ln_count().exp()).sum()
    }

    /// Lazily enumerates the cubes at this level.
    pub fn iter(&self) -> LevelCubesIter<'_> {
        LevelCubesIter {
            level: self,
            box_idx: 0,
            odometer: None,
        }
    }
}

/// Iterator over the cubes of a single level. Created by [`LevelCubes::iter`].
#[derive(Debug)]
pub struct LevelCubesIter<'a> {
    level: &'a LevelCubes,
    box_idx: usize,
    /// Current grid offsets within the current box, or `None` if the next box
    /// has not been entered yet.
    odometer: Option<Vec<u64>>,
}

fn cube_at(level: &LevelCubes, offsets: &[u64]) -> StandardCube {
    let side = 1u64 << level.side_exp;
    let top = level.universe.side();
    let corner: Vec<u64> = offsets.iter().map(|&n| top - (n + 1) * side).collect();
    StandardCube::new(&level.universe, corner, level.side_exp)
        .expect("extremal decomposition produces valid cubes")
}

impl Iterator for LevelCubesIter<'_> {
    type Item = StandardCube;

    fn next(&mut self) -> Option<StandardCube> {
        loop {
            let level = self.level;
            let boxes = &level.boxes;
            if self.box_idx >= boxes.len() {
                return None;
            }
            let gbox = &boxes[self.box_idx];
            match &mut self.odometer {
                None => {
                    if gbox.is_empty() {
                        self.box_idx += 1;
                        continue;
                    }
                    let start: Vec<u64> = gbox.ranges.iter().map(|&(lo, _)| lo).collect();
                    let cube = cube_at(level, &start);
                    self.odometer = Some(start);
                    return Some(cube);
                }
                Some(odometer) => {
                    // Advance the odometer (last dimension fastest).
                    let mut dim = odometer.len();
                    loop {
                        if dim == 0 {
                            // Exhausted this box.
                            self.odometer = None;
                            self.box_idx += 1;
                            break;
                        }
                        dim -= 1;
                        odometer[dim] += 1;
                        if odometer[dim] < gbox.ranges[dim].1 {
                            return Some(cube_at(level, odometer));
                        }
                        odometer[dim] = gbox.ranges[dim].0;
                    }
                }
            }
        }
    }
}

/// The greedy (minimum) decomposition of an extremal rectangle into standard
/// cubes, organized by level and enumerable lazily in descending cube size —
/// the access pattern of the approximate point-dominance query.
///
/// # Example
///
/// ```
/// use acd_sfc::{Universe, ExtremalRect, ExtremalCubes};
/// # fn main() -> Result<(), acd_sfc::SfcError> {
/// let u = Universe::new(2, 10)?;
/// // The paper's Figure 2 example: a 257x257 extremal square.
/// let rect = ExtremalRect::new(u, vec![257, 257])?;
/// let dec = ExtremalCubes::new(&rect);
/// let counts: Vec<(u32, u128)> = dec
///     .levels()
///     .iter()
///     .map(|l| (l.side_exp(), l.count().unwrap()))
///     .collect();
/// assert_eq!(counts, vec![(8, 1), (0, 513)]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ExtremalCubes {
    rect: ExtremalRect,
    levels: Vec<LevelCubes>,
}

impl ExtremalCubes {
    /// Builds the decomposition description of `rect`. This is cheap
    /// (O(d · k) work); no cubes are enumerated until iteration.
    pub fn new(rect: &ExtremalRect) -> Self {
        let universe = rect.universe().clone();
        let lengths = rect.lengths();
        let d = lengths.len();
        let b_min = lengths
            .iter()
            .map(|&l| bits::bit_length(l))
            .min()
            .expect("extremal rectangle has at least one dimension");

        let mut levels = Vec::new();
        // Levels run from b(ℓ_min) − 1 down to 0.
        for i in (0..b_min).rev() {
            if !bits::any_bit_set(lengths, i) {
                continue;
            }
            let unit = 1u64 << i;
            // Grid sizes of the nested extremal boxes R(S_i(ℓ)) and
            // R(S_{i+1}(ℓ)) in units of 2^i.
            let a: Vec<u64> = lengths
                .iter()
                .map(|&l| bits::keep_bits_from(l, i) / unit)
                .collect();
            let b: Vec<u64> = lengths
                .iter()
                .map(|&l| bits::keep_bits_from(l, i + 1) / unit)
                .collect();
            // The difference of the two boxes, split into at most d disjoint
            // sub-boxes: the t-th sub-box pins dimension t to the single new
            // slab (only present when bit i of ℓ_t is set).
            let mut boxes = Vec::new();
            for t in 0..d {
                if a[t] == b[t] {
                    continue; // bit i of ℓ_t is zero: no new slab on dim t
                }
                debug_assert_eq!(a[t], b[t] + 1);
                let ranges: Vec<(u64, u64)> = (0..d)
                    .map(|j| {
                        if j < t {
                            (0, b[j])
                        } else if j == t {
                            (b[t], a[t])
                        } else {
                            (0, a[j])
                        }
                    })
                    .collect();
                let gbox = GridBox { ranges };
                if !gbox.is_empty() {
                    boxes.push(gbox);
                }
            }
            if !boxes.is_empty() {
                levels.push(LevelCubes {
                    universe: universe.clone(),
                    side_exp: i,
                    boxes,
                });
            }
        }
        ExtremalCubes {
            rect: rect.clone(),
            levels,
        }
    }

    /// The rectangle being decomposed.
    pub fn rect(&self) -> &ExtremalRect {
        &self.rect
    }

    /// The non-empty levels of the decomposition, in descending cube size.
    pub fn levels(&self) -> &[LevelCubes] {
        &self.levels
    }

    /// Total number of cubes in the decomposition (the paper's
    /// `cubes(R(ℓ))`), if it fits in a `u128`.
    pub fn count_cubes(&self) -> Option<u128> {
        let mut total: u128 = 0;
        for l in &self.levels {
            total = total.checked_add(l.count()?)?;
        }
        Some(total)
    }

    /// Lazily enumerates all cubes, largest first.
    pub fn iter(&self) -> impl Iterator<Item = StandardCube> + '_ {
        self.levels.iter().flat_map(|l| l.iter())
    }

    /// `(side_exp, N_i)` pairs for every non-empty level, largest first.
    pub fn level_counts(&self) -> Vec<(u32, u128)> {
        self.levels
            .iter()
            .map(|l| (l.side_exp(), l.count().unwrap_or(u128::MAX)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decompose::{decompose_rect, histogram_by_level};
    use crate::rect::Rect;

    fn universe(d: usize, k: u32) -> Universe {
        Universe::new(d, k).unwrap()
    }

    /// Reference implementation: decompose the extremal rectangle with the
    /// generic quadtree algorithm and compare.
    fn reference_histogram(rect: &ExtremalRect) -> Vec<(u32, u64)> {
        let cubes = decompose_rect(rect.universe(), &rect.to_rect()).unwrap();
        histogram_by_level(&cubes)
    }

    #[test]
    fn matches_generic_decomposition_on_small_universes() {
        let u = universe(2, 5);
        for lx in [1u64, 2, 3, 5, 7, 8, 13, 21, 31, 32] {
            for ly in [1u64, 4, 6, 11, 17, 32] {
                let rect = ExtremalRect::new(u.clone(), vec![lx, ly]).unwrap();
                let dec = ExtremalCubes::new(&rect);
                let got: Vec<(u32, u64)> = dec
                    .level_counts()
                    .into_iter()
                    .map(|(e, n)| (e, n as u64))
                    .collect();
                assert_eq!(got, reference_histogram(&rect), "lengths {lx},{ly}");
            }
        }
    }

    #[test]
    fn matches_generic_decomposition_in_three_dims() {
        let u = universe(3, 4);
        for lengths in [
            vec![1u64, 1, 1],
            vec![16, 16, 16],
            vec![3, 5, 7],
            vec![9, 2, 12],
            vec![15, 15, 1],
            vec![8, 4, 2],
        ] {
            let rect = ExtremalRect::new(u.clone(), lengths.clone()).unwrap();
            let dec = ExtremalCubes::new(&rect);
            let got: Vec<(u32, u64)> = dec
                .level_counts()
                .into_iter()
                .map(|(e, n)| (e, n as u64))
                .collect();
            assert_eq!(got, reference_histogram(&rect), "lengths {lengths:?}");
        }
    }

    #[test]
    fn enumerated_cubes_tile_the_rectangle_exactly() {
        let u = universe(2, 5);
        for lengths in [vec![13u64, 21], vec![5, 5], vec![32, 1], vec![7, 19]] {
            let rect = ExtremalRect::new(u.clone(), lengths.clone()).unwrap();
            let dec = ExtremalCubes::new(&rect);
            let cubes: Vec<StandardCube> = dec.iter().collect();
            assert_eq!(cubes.len() as u128, dec.count_cubes().unwrap());
            // Disjoint...
            for (i, a) in cubes.iter().enumerate() {
                for b in cubes.iter().skip(i + 1) {
                    assert!(!a.to_rect().overlaps(&b.to_rect()), "{a} vs {b}");
                }
            }
            // ...and complete.
            let total: u128 = cubes.iter().map(|c| c.volume().unwrap()).sum();
            assert_eq!(total, rect.volume().unwrap(), "lengths {lengths:?}");
            let outer: Rect = rect.to_rect();
            for c in &cubes {
                assert!(outer.contains_rect(&c.to_rect()));
            }
        }
    }

    #[test]
    fn cubes_are_enumerated_largest_first() {
        let u = universe(2, 8);
        let rect = ExtremalRect::new(u, vec![201, 77]).unwrap();
        let dec = ExtremalCubes::new(&rect);
        let exps: Vec<u32> = dec.iter().map(|c| c.side_exp()).collect();
        let mut sorted = exps.clone();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        assert_eq!(exps, sorted);
    }

    #[test]
    fn figure_2_examples() {
        let u = universe(2, 10);
        // 256x256 extremal square: exactly one cube.
        let aligned = ExtremalRect::new(u.clone(), vec![256, 256]).unwrap();
        assert_eq!(ExtremalCubes::new(&aligned).count_cubes(), Some(1));
        // 257x257 extremal square: 1 + 513 cubes; the largest covers > 99%
        // of the volume.
        let off = ExtremalRect::new(u, vec![257, 257]).unwrap();
        let dec = ExtremalCubes::new(&off);
        assert_eq!(dec.count_cubes(), Some(514));
        let first = dec.iter().next().unwrap();
        let frac = first.volume().unwrap() as f64 / off.volume().unwrap() as f64;
        assert!(frac > 0.99, "largest cube covers {frac}");
    }

    #[test]
    fn lemma_3_5_count_formula() {
        // N_i = (prod S_i(ℓ_j) − prod S_{i+1}(ℓ_j)) / 2^{i·d}
        let u = universe(3, 8);
        let lengths = vec![201u64, 77, 255];
        let rect = ExtremalRect::new(u, lengths.clone()).unwrap();
        let dec = ExtremalCubes::new(&rect);
        for level in dec.levels() {
            let i = level.side_exp();
            let prod_i: u128 = lengths
                .iter()
                .map(|&l| bits::keep_bits_from(l, i) as u128)
                .product();
            let prod_i1: u128 = lengths
                .iter()
                .map(|&l| bits::keep_bits_from(l, i + 1) as u128)
                .product();
            let expected = (prod_i - prod_i1) >> (i * 3);
            assert_eq!(level.count(), Some(expected), "level {i}");
            let approx = level.count_f64();
            let rel = (approx - expected as f64).abs() / expected as f64;
            assert!(rel < 1e-9);
        }
    }

    #[test]
    fn single_cell_rectangle() {
        let u = universe(4, 6);
        let rect = ExtremalRect::new(u, vec![1, 1, 1, 1]).unwrap();
        let dec = ExtremalCubes::new(&rect);
        assert_eq!(dec.count_cubes(), Some(1));
        let cube = dec.iter().next().unwrap();
        assert_eq!(cube.volume(), Some(1));
        assert_eq!(cube.corner(), &[63, 63, 63, 63]);
    }

    #[test]
    fn whole_universe_rectangle_is_one_cube() {
        let u = universe(3, 5);
        let rect = ExtremalRect::new(u.clone(), vec![32, 32, 32]).unwrap();
        let dec = ExtremalCubes::new(&rect);
        assert_eq!(dec.count_cubes(), Some(1));
        assert_eq!(dec.iter().next().unwrap().side_exp(), 5);
    }

    #[test]
    fn lazy_enumeration_of_a_huge_region_is_cheap() {
        // A 2^20-sided region in 6 dimensions has an astronomically large
        // exhaustive decomposition; taking just the first few cubes must not
        // enumerate it.
        let u = universe(6, 20);
        let rect = ExtremalRect::new(
            u,
            vec![1_048_575, 1_000_003, 999_999, 1_048_400, 777_777, 654_321],
        )
        .unwrap();
        let dec = ExtremalCubes::new(&rect);
        let first_ten: Vec<StandardCube> = dec.iter().take(10).collect();
        assert_eq!(first_ten.len(), 10);
        assert!(first_ten[0].side_exp() >= first_ten[9].side_exp());
        // The analytic total is huge (far more than we would ever enumerate).
        assert!(dec.count_cubes().map(|c| c > 1_000_000).unwrap_or(true));
    }
}
