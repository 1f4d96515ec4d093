//! Property-based tests of the flat two-level [`SfcArray`] against a
//! straightforward `BTreeMap<Key, Vec<entry>>` reference model — the
//! ordered-map semantics the paper assumes — over random sequences of
//! inserts, removals and probes (long enough to force staging merges), plus
//! bulk-build equivalence.

use std::collections::BTreeMap;

use proptest::prelude::*;

use acd_sfc::{Key, KeyRange, Point, SfcArray, SpaceFillingCurve, Universe, ZCurve};

/// The reference model: a BTreeMap from key to the values stored at that
/// cell in insertion order.
struct Model {
    curve: ZCurve,
    cells: BTreeMap<Key, Vec<(Point, u32)>>,
    len: usize,
}

impl Model {
    fn new(curve: ZCurve) -> Self {
        Model {
            curve,
            cells: BTreeMap::new(),
            len: 0,
        }
    }

    fn insert(&mut self, point: Point, value: u32) {
        let key = self.curve.key_of_point(&point).unwrap();
        self.cells.entry(key).or_default().push((point, value));
        self.len += 1;
    }

    fn remove_if_even(&mut self, point: &Point) -> Option<u32> {
        let key = self.curve.key_of_point(point).unwrap();
        let bucket = self.cells.get_mut(&key)?;
        let pos = bucket.iter().position(|(_, v)| v % 2 == 0)?;
        let (_, value) = bucket.remove(pos);
        if bucket.is_empty() {
            self.cells.remove(&key);
        }
        self.len -= 1;
        Some(value)
    }

    fn entries(&self) -> Vec<(Point, u32)> {
        self.cells.values().flatten().cloned().collect()
    }
}

/// Every entry of `array` as its decoded point and value, in key order.
fn entries(array: &SfcArray<u32, ZCurve>) -> Vec<(Point, u32)> {
    array
        .iter()
        .map(|(k, &v)| (array.curve().point_of_key(&k).unwrap(), v))
        .collect()
}

#[derive(Debug, Clone)]
enum Op {
    Insert(u64, u64),
    RemoveEven(u64, u64),
    ProbeAtOrAfter(u64),
    CountRange(u64, u64),
}

fn op_strategy(side: u64) -> impl Strategy<Value = Op> {
    // The union samples arms uniformly; inserts are listed three times to
    // bias sequences toward growth (so staging merges actually trigger).
    prop_oneof![
        (0..side, 0..side).prop_map(|(x, y)| Op::Insert(x, y)),
        (0..side, 0..side).prop_map(|(x, y)| Op::Insert(x, y)),
        (0..side, 0..side).prop_map(|(x, y)| Op::Insert(x, y)),
        (0..side, 0..side).prop_map(|(x, y)| Op::RemoveEven(x, y)),
        (0u64..side * side).prop_map(Op::ProbeAtOrAfter),
        (0u64..side * side, 0u64..side * side).prop_map(|(a, b)| Op::CountRange(a, b)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random op sequences: the flat array and the BTreeMap model must
    /// agree on every probe, count, length and full iteration. Sequences
    /// are long enough (up to 400 inserts) to cross the staging-merge
    /// threshold several times.
    #[test]
    fn flat_array_matches_btreemap_model(
        ops in proptest::collection::vec(op_strategy(32), 1..400),
    ) {
        let universe = Universe::new(2, 5).unwrap();
        let curve = ZCurve::new(universe.clone());
        let total_bits = universe.key_bits();
        let mut array: SfcArray<u32, ZCurve> = SfcArray::new(curve.clone());
        let mut model = Model::new(curve.clone());
        let mut counter = 0u32;

        for op in ops {
            match op {
                Op::Insert(x, y) => {
                    let point = Point::new(vec![x, y]).unwrap();
                    array.insert(point.clone(), counter).unwrap();
                    model.insert(point, counter);
                    counter += 1;
                }
                Op::RemoveEven(x, y) => {
                    let point = Point::new(vec![x, y]).unwrap();
                    let got = array.remove_if(&point, |v| v % 2 == 0).unwrap();
                    let want = model.remove_if_even(&point);
                    prop_assert_eq!(got, want);
                }
                Op::ProbeAtOrAfter(raw) => {
                    let key = Key::from_u128(raw as u128, total_bits);
                    let got = array
                        .first_key_at_or_after(&key)
                        .map(|(k, bucket)| (k, bucket.to_vec()));
                    let want = model
                        .cells
                        .range(key..)
                        .next()
                        .map(|(k, bucket)| {
                            (k.clone(), bucket.iter().map(|(_, v)| *v).collect::<Vec<_>>())
                        });
                    prop_assert_eq!(got, want);
                }
                Op::CountRange(a, b) => {
                    let (lo, hi) = (a.min(b), a.max(b));
                    let range = KeyRange::new(
                        Key::from_u128(lo as u128, total_bits),
                        Key::from_u128(hi as u128, total_bits),
                    )
                    .unwrap();
                    let want: usize = model
                        .cells
                        .range(range.lo().clone()..=range.hi().clone())
                        .map(|(_, bucket)| bucket.len())
                        .sum();
                    let counted = array
                        .iter()
                        .filter(|(k, _)| range.lo() <= k && k <= range.hi())
                        .count();
                    prop_assert_eq!(counted, want);
                    let any = array
                        .first_key_at_or_after(range.lo())
                        .is_some_and(|(k, _)| &k <= range.hi());
                    prop_assert_eq!(any, want > 0);
                    let iterated: Vec<u32> = array.iter_range(&range).copied().collect();
                    let model_iterated: Vec<u32> = model
                        .cells
                        .range(range.lo().clone()..=range.hi().clone())
                        .flat_map(|(_, bucket)| bucket.iter().map(|(_, v)| *v))
                        .collect();
                    prop_assert_eq!(iterated, model_iterated);
                }
            }
            prop_assert_eq!(array.len(), model.len);
        }

        // Final full-state agreement, in key order.
        prop_assert_eq!(entries(&array), model.entries());
    }

    /// Bulk building agrees with incremental insertion of the same batch.
    #[test]
    fn bulk_builds_match_incremental(
        points in proptest::collection::vec((0u64..32, 0u64..32), 0..300),
    ) {
        let universe = Universe::new(2, 5).unwrap();
        let curve = ZCurve::new(universe);
        let batch: Vec<(Point, u32)> = points
            .iter()
            .enumerate()
            .map(|(i, &(x, y))| (Point::new(vec![x, y]).unwrap(), i as u32))
            .collect();

        let mut incremental: SfcArray<u32, ZCurve> = SfcArray::new(curve.clone());
        for (point, v) in &batch {
            incremental.insert(point.clone(), *v).unwrap();
        }

        let bulk = SfcArray::from_sorted(curve, batch).unwrap();

        prop_assert_eq!(entries(&bulk), entries(&incremental));
    }
}
