//! Multi-threaded stress test of [`ShardedCoveringIndex`] (plain `std`
//! threads, no loom): concurrent readers run covering queries — serial and
//! batched — while a writer storms inserts and removals. Every answer a
//! reader observes must equal a legal snapshot of the sequential model — the
//! state before or after some prefix of the writer's operations — and never
//! a torn mixture.
//!
//! The workload is constructed so that snapshot validity is checkable
//! without freezing the index:
//!
//! * a fixed *anchor* population is inserted up front and never removed, so
//!   the covering answers it implies form the floor of every snapshot;
//! * the writer churns *wide* subscriptions that cover the entire attribute
//!   space, so at any instant the true answer for a query is either "one of
//!   the precomputed anchor covers" or "a live churn subscription" — and a
//!   reported identifier tells us which legal snapshot was observed;
//! * a query that reports "not covered" is legal only if no anchor covers
//!   it (anchors never leave, so anything else would be an answer from no
//!   reachable snapshot — a torn read).

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use acd_covering::{ApproxConfig, QueryOutcome, ShardedCoveringIndex};
use acd_sfc::CurveKind;
use acd_subscription::{Schema, SubId, Subscription, SubscriptionBuilder};

const ANCHORS: u64 = 300;
const CHURN_BASE: SubId = 1_000_000;
const ROUNDS: usize = 60;
const BATCH: usize = 8;

fn schema() -> Schema {
    Schema::builder()
        .attribute("x", 0.0, 100.0)
        .attribute("y", 0.0, 100.0)
        .bits_per_attribute(6)
        .build()
        .unwrap()
}

fn random_subs(schema: &Schema, n: u64, first_id: SubId, seed: u64) -> Vec<Subscription> {
    let mut state = seed;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 33) % 10_000) as f64 / 100.0
    };
    (0..n)
        .map(|i| {
            let (a1, a2) = (next(), next());
            let (b1, b2) = (next(), next());
            SubscriptionBuilder::new(schema)
                .range("x", a1.min(a2), a1.max(a2))
                .range("y", b1.min(b2), b1.max(b2))
                .build(first_id + i)
                .unwrap()
        })
        .collect()
}

fn wide(schema: &Schema, id: SubId) -> Subscription {
    SubscriptionBuilder::new(schema)
        .range("x", 0.0, 100.0)
        .range("y", 0.0, 100.0)
        .build(id)
        .unwrap()
}

#[test]
fn concurrent_readers_never_observe_torn_answers() {
    let s = schema();
    let anchors = random_subs(&s, ANCHORS, 1, 0xfeed);
    let queries = random_subs(&s, 48, 500_000, 0xbeef);

    // Sequential model: which anchors cover each query (the churn-free
    // snapshot).
    let anchor_covers: Vec<HashSet<SubId>> = queries
        .iter()
        .map(|q| {
            anchors
                .iter()
                .filter(|a| a.covers(q))
                .map(|a| a.id())
                .collect()
        })
        .collect();

    let index =
        ShardedCoveringIndex::build_from(&s, ApproxConfig::exhaustive(), CurveKind::Z, 4, &anchors)
            .unwrap();

    let done = AtomicBool::new(false);
    let reader_passes = AtomicUsize::new(0);
    let rounds_done = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        // The writer: storms of BATCH wide-subscription inserts followed by
        // their removals, so the set of legal snapshots at any instant is
        // "anchors plus any subset of the current batch". It keeps churning
        // until the readers have completed several full passes (so reads
        // genuinely overlap the storm), with a hard cap as a backstop on
        // starved machines.
        scope.spawn(|| {
            let mut round = 0usize;
            loop {
                let base = CHURN_BASE + (round * BATCH) as u64;
                for k in 0..BATCH {
                    index.insert(&wide(&s, base + k as u64)).unwrap();
                }
                for k in 0..BATCH {
                    index.remove(base + k as u64).unwrap();
                }
                round += 1;
                let enough_passes = reader_passes.load(Ordering::Acquire) >= 6;
                if (round >= ROUNDS && enough_passes) || round >= 50_000 {
                    break;
                }
                if round.is_multiple_of(16) {
                    // Give starved readers a scheduling window on
                    // single-core machines.
                    std::thread::yield_now();
                }
            }
            rounds_done.store(round, Ordering::Release);
            done.store(true, Ordering::Release);
        });

        // Readers: hammer the query set until the writer finishes; check
        // every answer against the legal-snapshot envelope.
        for reader in 0..2 {
            let queries = &queries;
            let anchor_covers = &anchor_covers;
            let index = &index;
            let done = &done;
            let reader_passes = &reader_passes;
            scope.spawn(move || {
                let mut pass = 0usize;
                while !done.load(Ordering::Acquire) || pass == 0 {
                    // Alternate the serial sweep with the shared-sweep batch
                    // walk over the same query set; every element of either
                    // must sit inside the legal-snapshot envelope.
                    let outcomes: Vec<QueryOutcome> = if (pass + reader).is_multiple_of(2) {
                        queries
                            .iter()
                            .map(|q| index.find_covering(q).unwrap())
                            .collect()
                    } else {
                        index.find_covering_batch(queries).unwrap()
                    };
                    assert_eq!(outcomes.len(), queries.len());
                    for ((q, covers), outcome) in queries.iter().zip(anchor_covers).zip(outcomes) {
                        match outcome.covering {
                            Some(id) if id >= CHURN_BASE => {
                                // A churn subscription: covers everything by
                                // construction, so always a legal snapshot.
                            }
                            Some(id) => {
                                assert!(
                                    covers.contains(&id),
                                    "anchor {id} reported but does not cover query {}",
                                    q.id()
                                );
                            }
                            None => {
                                assert!(
                                    covers.is_empty(),
                                    "query {} lost its permanent anchor cover mid-churn",
                                    q.id()
                                );
                            }
                        }
                    }
                    pass += 1;
                    reader_passes.fetch_add(1, Ordering::AcqRel);
                }
            });
        }
    });
    let churn_ops = (rounds_done.load(Ordering::Acquire) * BATCH) as u64;

    // Quiescence: all churn subscriptions removed, the index must answer
    // exactly like the anchors-only sequential model.
    assert_eq!(index.len(), anchors.len());
    for (q, covers) in queries.iter().zip(&anchor_covers) {
        let outcome = index.find_covering(q).unwrap();
        assert_eq!(outcome.is_covered(), !covers.is_empty());
        if let Some(id) = outcome.covering {
            assert!(covers.contains(&id));
        }
    }
    // Shard-level accounting survived the storm.
    assert_eq!(index.shard_lens().iter().sum::<usize>(), anchors.len());
    let stats = ShardedCoveringIndex::stats(&index);
    assert!(churn_ops >= (ROUNDS * BATCH) as u64);
    assert_eq!(stats.inserts, ANCHORS + churn_ops);
    assert_eq!(stats.removes, churn_ops);
}

#[test]
fn concurrent_writers_partition_cleanly_across_shards() {
    // Two writers inserting and removing disjoint id ranges concurrently
    // must leave exactly the union of what they committed, with the
    // registry, shards and statistics in agreement.
    let s = schema();
    let index = ShardedCoveringIndex::new(&s, ApproxConfig::exhaustive(), CurveKind::Z, 4).unwrap();
    std::thread::scope(|scope| {
        for writer in 0..2u64 {
            let s = &s;
            let index = &index;
            scope.spawn(move || {
                let first = 1 + writer * 10_000;
                let subs = random_subs(s, 400, first, 0x1234 + writer);
                for sub in &subs {
                    index.insert(sub).unwrap();
                }
                // Remove every other one again.
                for sub in subs.iter().step_by(2) {
                    index.remove(sub.id()).unwrap();
                }
            });
        }
    });
    assert_eq!(index.len(), 400);
    assert_eq!(index.shard_lens().iter().sum::<usize>(), 400);
    for writer in 0..2u64 {
        let first = 1 + writer * 10_000;
        let subs = random_subs(&s, 400, first, 0x1234 + writer);
        for (i, sub) in subs.iter().enumerate() {
            assert_eq!(index.contains(sub.id()), i % 2 == 1, "id {}", sub.id());
        }
    }
    let stats = ShardedCoveringIndex::stats(&index);
    assert_eq!(stats.inserts, 800);
    assert_eq!(stats.removes, 400);
}
