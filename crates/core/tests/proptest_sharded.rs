//! Differential property tests of the sharded covering index: on random
//! interleaved insert/remove/query sequences, [`ShardedCoveringIndex`] at
//! 1, 2, 4 and 7 shards must agree with a single [`SfcCoveringIndex`] and
//! with the [`LinearScanIndex`] ground truth, and the outcomes it returns —
//! serial and batched — must sum to exactly the totals `stats()` reports.

use proptest::prelude::*;

use acd_covering::{
    ApproxConfig, CoveringIndex, IndexStats, LinearScanIndex, SfcCoveringIndex,
    ShardedCoveringIndex,
};
use acd_sfc::CurveKind;
use acd_subscription::{Schema, SubId, Subscription, SubscriptionBuilder};

const POOL: u64 = 48;

fn schema() -> Schema {
    Schema::builder()
        .attribute("a", 0.0, 100.0)
        .attribute("b", 0.0, 100.0)
        .bits_per_attribute(5)
        .build()
        .unwrap()
}

/// Deterministic subscription pool: index `i` always denotes the same
/// subscription, so operation sequences are reproducible.
fn pool(schema: &Schema) -> Vec<Subscription> {
    let mut state = 0x8421_u64;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 33) % 10_000) as f64 / 100.0
    };
    (0..POOL)
        .map(|id| {
            let (a1, a2) = (next(), next());
            let (b1, b2) = (next(), next());
            SubscriptionBuilder::new(schema)
                .range("a", a1.min(a2), a1.max(a2))
                .range("b", b1.min(b2), b1.max(b2))
                .build(id + 1)
                .unwrap()
        })
        .collect()
}

#[derive(Debug, Clone)]
enum Op {
    Insert(u64),
    Remove(u64),
    Query(u64),
    /// Re-cut every sharded index's boundaries to the current population's
    /// quantiles. Pure maintenance: it must never change any answer, any
    /// length, or any accumulated total.
    Rebalance,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..POOL).prop_map(Op::Insert),
        (0..POOL).prop_map(Op::Insert),
        (0..POOL).prop_map(Op::Remove),
        (0..POOL).prop_map(Op::Query),
        (0..POOL).prop_map(Op::Query),
        Just(Op::Rebalance),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn sharded_equals_single_equals_linear_under_interleaved_churn(
        ops in proptest::collection::vec(op_strategy(), 1..220),
    ) {
        let s = schema();
        let subs = pool(&s);
        let shard_counts = [1usize, 2, 4, 7];
        let sharded: Vec<ShardedCoveringIndex> = shard_counts
            .iter()
            .map(|&n| {
                ShardedCoveringIndex::new(&s, ApproxConfig::exhaustive(), CurveKind::Z, n)
                    .unwrap()
            })
            .collect();
        let mut single = SfcCoveringIndex::exhaustive(&s).unwrap();
        let mut linear = LinearScanIndex::new(&s);
        let mut live = std::collections::HashSet::new();
        // Running sum of every outcome each sharded index has returned.
        let mut expected = vec![IndexStats::default(); sharded.len()];

        for op in ops {
            match op {
                Op::Insert(i) => {
                    let sub = &subs[i as usize];
                    if live.insert(sub.id()) {
                        for idx in &sharded {
                            idx.insert(sub).unwrap();
                        }
                        single.insert(sub).unwrap();
                        linear.insert(sub).unwrap();
                    } else {
                        for idx in &sharded {
                            prop_assert!(idx.insert(sub).is_err());
                        }
                        prop_assert!(single.insert(sub).is_err());
                        prop_assert!(linear.insert(sub).is_err());
                    }
                }
                Op::Remove(i) => {
                    let id: SubId = i + 1;
                    if live.remove(&id) {
                        for idx in &sharded {
                            idx.remove(id).unwrap();
                        }
                        single.remove(id).unwrap();
                        linear.remove(id).unwrap();
                    } else {
                        for idx in &sharded {
                            prop_assert!(idx.remove(id).is_err());
                        }
                        prop_assert!(single.remove(id).is_err());
                        prop_assert!(linear.remove(id).is_err());
                    }
                }
                Op::Rebalance => {
                    for idx in &sharded {
                        let stats_before = ShardedCoveringIndex::stats(idx);
                        let outcome = idx.rebalance().unwrap();
                        let stats_after = ShardedCoveringIndex::stats(idx);
                        // Migration is invisible to every accumulated
                        // total except its own counters.
                        prop_assert_eq!(stats_after.inserts, stats_before.inserts);
                        prop_assert_eq!(stats_after.removes, stats_before.removes);
                        prop_assert_eq!(stats_after.queries, stats_before.queries);
                        prop_assert_eq!(stats_after.total_probes, stats_before.total_probes);
                        prop_assert_eq!(
                            stats_after.subscriptions_migrated,
                            stats_before.subscriptions_migrated + outcome.moved as u64
                        );
                        prop_assert_eq!(
                            idx.shard_lens().iter().sum::<usize>(),
                            live.len()
                        );
                    }
                }
                Op::Query(i) => {
                    let q = &subs[i as usize];
                    let truth = linear.find_covering(q).unwrap().is_covered();
                    let exact = single.find_covering(q).unwrap().is_covered();
                    prop_assert_eq!(truth, exact, "single vs linear on {}", q.id());
                    // The batch walk answers a few pool neighbours of `q`
                    // alongside it.
                    let batch: Vec<Subscription> = [0, 1, 7]
                        .iter()
                        .map(|off| subs[((i + off) % POOL) as usize].clone())
                        .collect();
                    let batch_truth: Vec<bool> = batch
                        .iter()
                        .map(|b| linear.find_covering(b).unwrap().is_covered())
                        .collect();
                    for ((shards, idx), expected) in
                        shard_counts.iter().zip(&sharded).zip(&mut expected)
                    {
                        let outcome = idx.find_covering(q).unwrap();
                        prop_assert_eq!(
                            outcome.is_covered(),
                            truth,
                            "{} shards disagree with linear on {}",
                            shards,
                            q.id()
                        );
                        // Any reported id must be live and truly covering.
                        if let Some(id) = outcome.covering {
                            prop_assert!(live.contains(&id));
                            prop_assert!(idx.get(id).unwrap().covers(q));
                        }
                        expected.record_query(&outcome);
                        let outcomes = idx.find_covering_batch(&batch).unwrap();
                        prop_assert_eq!(outcomes.len(), batch.len());
                        for (outcome, want) in outcomes.iter().zip(&batch_truth) {
                            prop_assert_eq!(
                                outcome.is_covered(),
                                *want,
                                "{} shards: batch disagrees with linear",
                                shards
                            );
                            expected.record_query(outcome);
                        }
                        // Stats invariant: the outcomes handed back, serial
                        // and batched, sum to exactly the recorded totals
                        // (across any rebalances so far).
                        let query_totals = IndexStats {
                            inserts: 0,
                            removes: 0,
                            rebalances: 0,
                            subscriptions_migrated: 0,
                            ..ShardedCoveringIndex::stats(idx)
                        };
                        prop_assert_eq!(&query_totals, &*expected);
                    }
                }
            }
            // Length bookkeeping must agree everywhere, every step.
            for idx in &sharded {
                prop_assert_eq!(ShardedCoveringIndex::len(idx), live.len());
            }
            prop_assert_eq!(CoveringIndex::len(&single), live.len());
        }

        // Endgame: covered-by sets agree across all implementations.
        for q in subs.iter().step_by(9) {
            let mut want = linear.find_covered_by(q).unwrap();
            want.sort_unstable();
            for idx in &sharded {
                let mut got = idx.find_covered_by(q).unwrap();
                got.sort_unstable();
                prop_assert_eq!(&got, &want, "covered-by mismatch for {}", q.id());
            }
        }

        // A bulk build over the surviving population answers like the
        // incrementally maintained indexes.
        let survivors: Vec<&Subscription> = subs
            .iter()
            .filter(|s| live.contains(&s.id()))
            .collect();
        let bulk = ShardedCoveringIndex::build_from(
            &s,
            ApproxConfig::exhaustive(),
            CurveKind::Z,
            4,
            survivors.into_iter(),
        )
        .unwrap();
        for q in subs.iter().step_by(7) {
            prop_assert_eq!(
                bulk.find_covering(q).unwrap().is_covered(),
                linear.find_covering(q).unwrap().is_covered(),
                "bulk sharded disagrees with linear on {}",
                q.id()
            );
        }
    }
}
