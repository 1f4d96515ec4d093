//! Deterministic churn-model test: long random insert/remove interleavings
//! (value-exact removals, far heavier on removals than the proptest suite)
//! checked against a `BTreeMap` model, on both the packed (<=128-bit keys)
//! and the wide-key layouts, on every curve. This is the workload that would
//! surface a staged cell resurrecting across a merge; and since the array
//! stores keys only, the model's coordinates are recovered through each
//! curve's inverse.

use std::collections::BTreeMap;

use acd_sfc::{GrayCurve, HilbertCurve, Point, SfcArray, SpaceFillingCurve, Universe, ZCurve};

/// 2 x 5 bits: the packed key column.
fn packed() -> Universe {
    Universe::new(2, 5).unwrap()
}

/// 3 x 44 = 132 bits > 128: the wide key column.
fn wide() -> Universe {
    Universe::new(3, 44).unwrap()
}

#[test]
fn churn_matches_model_on_packed_keys() {
    run_churn(ZCurve::new(packed()), 32, 60);
    run_churn(HilbertCurve::new(packed()), 32, 20);
    run_churn(GrayCurve::new(packed()), 32, 20);
}

#[test]
fn churn_matches_model_on_wide_keys() {
    run_churn(ZCurve::new(wide()), 8, 16);
    run_churn(HilbertCurve::new(wide()), 8, 4);
    run_churn(GrayCurve::new(wide()), 8, 4);
}

fn run_churn<C: SpaceFillingCurve + Clone>(curve: C, side: u64, seeds: u64) {
    let dims = curve.universe().dims();
    for seed in 0..seeds {
        let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(1);
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut array: SfcArray<u32, C> = SfcArray::new(curve.clone());
        let mut model: BTreeMap<Vec<u64>, Vec<u32>> = BTreeMap::new();
        let mut counter = 0u32;
        let mut live: Vec<(Vec<u64>, u32)> = Vec::new();
        for op in 0..4000u64 {
            let r = next();
            let coords: Vec<u64> = (0..dims).map(|_| next() % side).collect();
            if r % 100 < 55 || live.is_empty() {
                let p = Point::new(coords.clone()).unwrap();
                array.insert(p, counter).unwrap();
                model.entry(coords.clone()).or_default().push(counter);
                live.push((coords, counter));
                counter += 1;
            } else {
                let i = (next() as usize) % live.len();
                let (rc, v) = live.swap_remove(i);
                let p = Point::new(rc.clone()).unwrap();
                let got = array.remove_if(&p, |&val| val == v).unwrap();
                assert_eq!(got, Some(v), "seed {seed} op {op}: remove lost value");
                let bucket = model.get_mut(&rc).unwrap();
                let pos = bucket.iter().position(|&b| b == v).unwrap();
                bucket.remove(pos);
                if bucket.is_empty() {
                    model.remove(&rc);
                }
            }
            if op % 64 == 0 {
                let got: Vec<(Vec<u64>, u32)> = array
                    .iter()
                    .map(|(k, &v)| (curve.point_of_key(&k).unwrap().coords().to_vec(), v))
                    .collect();
                let mut keyed: Vec<_> = model
                    .iter()
                    .map(|(c, vs)| {
                        let k = curve.key_of_point(&Point::new(c.clone()).unwrap()).unwrap();
                        (k, c.clone(), vs.clone())
                    })
                    .collect();
                keyed.sort_by(|a, b| a.0.cmp(&b.0));
                let mut want: Vec<(Vec<u64>, u32)> = Vec::new();
                for (_, c, vs) in keyed {
                    for v in vs {
                        want.push((c.clone(), v));
                    }
                }
                assert_eq!(got, want, "seed {seed} op {op}: state diverged");
                assert_eq!(array.len(), model.values().map(|v| v.len()).sum::<usize>());
            }
        }
    }
}
