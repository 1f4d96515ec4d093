//! Runs: maximal contiguous segments of the SFC key order.
//!
//! A query region decomposed into standard cubes maps to a set of key ranges
//! (one per cube, by Fact 2.1). Cubes that happen to be adjacent in key order
//! merge into a single *run*; the cost of probing the SFC array is
//! proportional to the number of runs, not cubes, which is why
//! `runs(T) ≤ cubes(T)` (Lemma 3.1). This module converts cube sets into
//! runs and counts them, for the experiments that reproduce the paper's
//! Figure 1 and Figure 2 run counts.

use crate::cube::StandardCube;
use crate::curve::SpaceFillingCurve;
use crate::key::KeyRange;
use crate::rect::Rect;
use crate::universe::Universe;
use crate::Result;

/// A run: a maximal contiguous key range produced by merging adjacent cube
/// ranges, remembering how many cubes it absorbed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Run {
    range: KeyRange,
    cubes: usize,
}

impl Run {
    /// The merged key range.
    pub fn range(&self) -> &KeyRange {
        &self.range
    }

    /// How many standard cubes were merged into this run.
    pub fn cubes(&self) -> usize {
        self.cubes
    }
}

/// Merges the key ranges of `cubes` (under `curve`) into maximal runs,
/// returned in increasing key order.
///
/// # Errors
///
/// Returns an error if any cube does not belong to the curve's universe.
pub fn runs_of_cubes(curve: &dyn SpaceFillingCurve, cubes: &[StandardCube]) -> Result<Vec<Run>> {
    let mut ranges = Vec::with_capacity(cubes.len());
    for cube in cubes {
        ranges.push(curve.cube_key_range(cube)?);
    }
    Ok(merge_ranges(ranges))
}

/// Merges a set of disjoint key ranges into maximal runs, returned in
/// increasing key order.
pub fn merge_ranges(mut ranges: Vec<KeyRange>) -> Vec<Run> {
    ranges.sort_by(|a, b| a.lo().cmp(b.lo()));
    let mut out: Vec<Run> = Vec::new();
    for range in ranges {
        match out.last_mut() {
            Some(last) if last.range.is_adjacent_to(&range) || last.range.overlaps(&range) => {
                last.range = last.range.merge(&range);
                last.cubes += 1;
            }
            _ => out.push(Run { range, cubes: 1 }),
        }
    }
    out
}

/// The minimum number of runs covering a rectangle on the given curve: the
/// paper's `runs(T)`, computed by decomposing the rectangle into its greedy
/// minimum cube partition and merging adjacent ranges.
///
/// # Errors
///
/// Returns an error if the rectangle does not lie inside the curve's universe.
///
/// # Complexity
///
/// Enumerates the full cube decomposition; intended for the analysis and
/// experiment paths, not for the query hot path (the index merges lazily).
pub fn count_runs_of_rect(
    curve: &dyn SpaceFillingCurve,
    universe: &Universe,
    rect: &Rect,
) -> Result<u64> {
    let cubes = crate::decompose::decompose_rect(universe, rect)?;
    let runs = runs_of_cubes(curve, &cubes)?;
    Ok(runs.len() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gray::GrayCurve;
    use crate::hilbert::HilbertCurve;
    use crate::key::Key;
    use crate::zorder::ZCurve;

    fn universe(d: usize, k: u32) -> Universe {
        Universe::new(d, k).unwrap()
    }

    #[test]
    fn merge_ranges_merges_adjacent_and_keeps_gaps() {
        let r = |lo: u128, hi: u128| {
            KeyRange::new(Key::from_u128(lo, 16), Key::from_u128(hi, 16)).unwrap()
        };
        let runs = merge_ranges(vec![r(8, 11), r(0, 3), r(4, 7), r(13, 13)]);
        assert_eq!(runs.len(), 2);
        assert_eq!(runs[0].range().lo().to_u128(), Some(0));
        assert_eq!(runs[0].range().hi().to_u128(), Some(11));
        assert_eq!(runs[0].cubes(), 3);
        assert_eq!(runs[1].range().lo().to_u128(), Some(13));
        assert_eq!(runs[1].cubes(), 1);
    }

    #[test]
    fn runs_never_exceed_cubes_lemma_3_1() {
        let u = universe(2, 6);
        let z = ZCurve::new(u.clone());
        let mut state = 99u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 33) % 64
        };
        for _ in 0..30 {
            let (a, b, c, d) = (next(), next(), next(), next());
            let rect = Rect::new(vec![a.min(b), c.min(d)], vec![a.max(b), c.max(d)]).unwrap();
            let cubes = crate::decompose::decompose_rect(&u, &rect).unwrap();
            let runs = runs_of_cubes(&z, &cubes).unwrap();
            assert!(runs.len() <= cubes.len());
            let merged: usize = runs.iter().map(|r| r.cubes()).sum();
            assert_eq!(merged, cubes.len());
        }
    }

    #[test]
    fn figure_1_hilbert_needs_no_more_runs_than_z() {
        // Figure 1 of the paper: the same rectangle needs 2 runs on the
        // Hilbert curve and 3 on the Z curve. We reproduce the phenomenon
        // with the canonical example: the 2x4 rectangle straddling the
        // universe's vertical midline.
        let u = universe(2, 3);
        let z = ZCurve::new(u.clone());
        let h = HilbertCurve::new(u.clone());
        let rect = Rect::new(vec![2, 0], vec![5, 1]).unwrap();
        let z_runs = count_runs_of_rect(&z, &u, &rect).unwrap();
        let h_runs = count_runs_of_rect(&h, &u, &rect).unwrap();
        assert!(h_runs <= z_runs, "hilbert {h_runs} vs z {z_runs}");
        assert!(z_runs >= 2);
    }

    #[test]
    fn figure_2_run_counts() {
        let u = universe(2, 10);
        let z = ZCurve::new(u.clone());
        // First query region: an aligned 256x256 extremal square is a single
        // run.
        let aligned = Rect::new(vec![768, 768], vec![1023, 1023]).unwrap();
        assert_eq!(count_runs_of_rect(&z, &u, &aligned).unwrap(), 1);
        // Second query region: the 257x257 extremal square needs 385 runs on
        // the Z curve, exactly as the paper reports.
        let off = Rect::new(vec![767, 767], vec![1023, 1023]).unwrap();
        assert_eq!(count_runs_of_rect(&z, &u, &off).unwrap(), 385);
    }

    #[test]
    fn single_cube_regions_are_single_runs_on_all_curves() {
        let u = universe(3, 3);
        let curves: Vec<Box<dyn SpaceFillingCurve>> = vec![
            Box::new(ZCurve::new(u.clone())),
            Box::new(HilbertCurve::new(u.clone())),
            Box::new(GrayCurve::new(u.clone())),
        ];
        for curve in &curves {
            for exp in 0..=3u32 {
                let side = 1u64 << exp;
                let cube = StandardCube::new(&u, vec![8 - side, 0, 8 - side], exp).unwrap();
                let runs = runs_of_cubes(curve.as_ref(), std::slice::from_ref(&cube)).unwrap();
                assert_eq!(runs.len(), 1, "{} cube {cube}", curve.name());
                assert_eq!(runs[0].range().len(), Some(cube.volume().unwrap()));
            }
        }
    }

    #[test]
    fn run_counting_is_consistent_with_brute_force() {
        // Brute force: sort all cell keys in the rectangle and count
        // discontinuities. Must equal the cube-merge computation.
        let u = universe(2, 4);
        let z = ZCurve::new(u.clone());
        let rect = Rect::new(vec![3, 5], vec![12, 11]).unwrap();
        let mut keys: Vec<u128> = Vec::new();
        for x in 3..=12u64 {
            for y in 5..=11u64 {
                keys.push(
                    z.key_of_point(&crate::universe::Point::new(vec![x, y]).unwrap())
                        .unwrap()
                        .to_u128()
                        .unwrap(),
                );
            }
        }
        keys.sort_unstable();
        let mut brute_runs = 1u64;
        for w in keys.windows(2) {
            if w[1] != w[0] + 1 {
                brute_runs += 1;
            }
        }
        assert_eq!(count_runs_of_rect(&z, &u, &rect).unwrap(), brute_runs);
    }
}
