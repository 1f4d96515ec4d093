//! Hand-rolled lane comparators for the flat packed key column.
//!
//! The packed `u128` key column in [`crate::SfcArray`] is a plain sorted numeric
//! array — exactly the layout wide compares want. The stable toolchain has
//! no `std::simd`, so these kernels are written in the four-lane style the
//! autovectorizer reliably turns into SIMD: four independent accumulators over
//! `chunks_exact(4)`, branch-free `usize::from(x < v)` lane compares, one
//! horizontal add at the end. Counting the elements below `v` in a sorted
//! window *is* `partition_point`, so a binary search narrowed to a small
//! window plus one lane count gives a branch-light lower bound; the
//! galloping variant keeps the `O(log gap)` cost of a monotone sweep and
//! only swaps the final narrow phase for lanes.
//!
//! Everything here reads a slice and returns an index, so nothing allocates;
//! the sweep cursors that call these kernels are held to the churn budgets
//! of the root package's `tests/allocations.rs`.

/// Lane width of the hand-rolled comparators (a `u128x4` shape).
pub const LANES: usize = 4;

/// Window size below which the lower bounds stop bisecting and count lanes
/// instead: 8 lane groups — small enough that the count is a handful of
/// vector compares, large enough to skip the worst (least predictable)
/// binary-search steps.
const LANE_WINDOW: usize = 8 * LANES;

/// Number of elements of `xs` strictly below `v`, counted branch-free in
/// four independent lanes. On a sorted slice this equals
/// `xs.partition_point(|&x| x < v)`.
#[inline]
pub fn count_below_u128x4(xs: &[u128], v: u128) -> usize {
    let mut lanes = [0usize; LANES];
    let mut chunks = xs.chunks_exact(LANES);
    for ch in &mut chunks {
        lanes[0] += usize::from(ch[0] < v);
        lanes[1] += usize::from(ch[1] < v);
        lanes[2] += usize::from(ch[2] < v);
        lanes[3] += usize::from(ch[3] < v);
    }
    let mut count = lanes[0] + lanes[1] + lanes[2] + lanes[3];
    for &x in chunks.remainder() {
        count += usize::from(x < v);
    }
    count
}

/// First index into sorted `xs` whose element is ≥ `v`: binary search
/// narrowed to a `LANE_WINDOW`, finished with one lane count. Equivalent
/// to `xs.partition_point(|&x| x < v)`.
pub fn lower_bound_u128(xs: &[u128], v: u128) -> usize {
    let (mut lo, mut hi) = (0usize, xs.len());
    while hi - lo > LANE_WINDOW {
        let mid = lo + (hi - lo) / 2;
        if xs[mid] < v {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo + count_below_u128x4(&xs[lo..hi], v)
}

/// First index ≥ `from` into sorted `xs` whose element is ≥ `v`, found by
/// exponential (galloping) search bracketed down to a lane count —
/// `O(log distance)` like the plain gallop, with the final narrow phase
/// replaced by branch-free lanes. The packed key column's sweep cursors use
/// this for monotone probe sequences.
pub fn lower_bound_u128_from(xs: &[u128], from: usize, v: u128) -> usize {
    let n = xs.len();
    let mut lo = from;
    if lo >= n || xs[lo] >= v {
        return lo;
    }
    // Invariant: xs[lo] < v; double the step until past `v`.
    let mut step = 1usize;
    let mut hi = lo + 1;
    while hi < n && xs[hi] < v {
        lo = hi;
        hi += step;
        step *= 2;
    }
    let mut hi = hi.min(n);
    // The answer lies in (lo, hi]; bisect down to a lane-countable window.
    let mut lo = lo + 1;
    while hi - lo > LANE_WINDOW {
        let mid = lo + (hi - lo) / 2;
        if xs[mid] < v {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo + count_below_u128x4(&xs[lo..hi], v)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic xorshift for test data.
    fn rng(mut state: u64) -> impl FnMut() -> u64 {
        move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        }
    }

    #[test]
    fn counts_match_partition_point_on_sorted_data() {
        let mut next = rng(0xacdc);
        for n in [0usize, 1, 3, 4, 5, 7, 8, 31, 32, 33, 100, 257] {
            let mut xs: Vec<u64> = (0..n).map(|_| next() % 1000).collect();
            xs.sort_unstable();
            let xs128: Vec<u128> = xs.iter().map(|&x| u128::from(x) << 64 | 7).collect();
            for probe in 0..1001u64 {
                let want = xs.partition_point(|&x| x < probe);
                let probe128 = u128::from(probe) << 64 | 7;
                assert_eq!(
                    count_below_u128x4(&xs128, probe128),
                    want,
                    "n={n} v={probe}"
                );
                assert_eq!(lower_bound_u128(&xs128, probe128), want, "n={n} v={probe}");
            }
        }
    }

    #[test]
    fn galloping_lower_bound_matches_partition_point_from_any_start() {
        let mut next = rng(0xbeef);
        let mut xs: Vec<u128> = (0..300).map(|_| u128::from(next() % 512)).collect();
        xs.sort_unstable();
        for from in [0usize, 1, 7, 150, 299, 300, 301] {
            for probe in 0..513u128 {
                let want = xs.partition_point(|&x| x < probe).max(from);
                assert_eq!(
                    lower_bound_u128_from(&xs, from, probe),
                    want,
                    "from={from} v={probe}"
                );
            }
        }
    }

    #[test]
    fn extreme_values_are_handled() {
        let xs = [0u128, 1, u128::MAX - 1, u128::MAX];
        assert_eq!(count_below_u128x4(&xs, 0), 0);
        assert_eq!(count_below_u128x4(&xs, u128::MAX), 3);
        assert_eq!(lower_bound_u128(&xs, u128::MAX), 3);
        assert_eq!(lower_bound_u128_from(&xs, 0, u128::MAX), 3);
    }
}
