//! Multi-threaded stress test of online shard rebalancing: covering
//! queries (serial and batched) race a writer that drifts the population
//! into a hot key region and a maintenance thread that keeps re-cutting the
//! shard boundaries. Every answer a reader observes must equal a legal
//! snapshot of the sequential model — boundary migration must be completely
//! invisible to correctness.
//!
//! The legality envelope is the same construction as `stress_sharded.rs`:
//!
//! * a fixed *anchor* population is inserted up front and never removed, so
//!   the covering answers it implies form the floor of every snapshot;
//! * the writer churns *wide* subscriptions that cover the entire attribute
//!   space plus narrow drift subscriptions concentrated in one corner (the
//!   drift is what forces the rebalancer to actually move boundaries);
//! * a query that reports "not covered" is legal only if no anchor covers
//!   it, and any reported identifier must be an anchor that truly covers
//!   the query or a live churn subscription.

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use acd_covering::{ApproxConfig, IndexStats, QueryOutcome, ShardedCoveringIndex};
use acd_sfc::CurveKind;
use acd_subscription::{Schema, SubId, Subscription, SubscriptionBuilder};

const ANCHORS: u64 = 240;
const CHURN_BASE: SubId = 1_000_000;
const ROUNDS: usize = 50;
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

/// A narrow subscription in the hot corner: many of these shift the key
/// distribution so quantile re-cuts actually move boundaries.
fn corner(schema: &Schema, id: SubId, jitter: f64) -> Subscription {
    let lo = 90.0 + jitter;
    SubscriptionBuilder::new(schema)
        .range("x", lo, (lo + 2.0).min(100.0))
        .range("y", lo, (lo + 2.0).min(100.0))
        .build(id)
        .unwrap()
}

#[test]
fn queries_racing_an_active_migration_observe_only_legal_snapshots() {
    let s = schema();
    let anchors = random_subs(&s, ANCHORS, 1, 0x5eed);
    let queries = random_subs(&s, 40, 500_000, 0xd1ce);

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
    let rebalance_passes = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        // The writer: each round inserts a batch of wide covers plus a batch
        // of hot-corner drift subscriptions, then removes the wides and the
        // previous round's corners — so the live drift population keeps
        // skewing the key distribution while the set of legal snapshots
        // stays "anchors, plus any subset of the current churn batches".
        scope.spawn(|| {
            let mut round = 0usize;
            loop {
                let base = CHURN_BASE + (round * BATCH * 2) as u64;
                for k in 0..BATCH {
                    index.insert(&wide(&s, base + k as u64)).unwrap();
                    let corner_id = base + (BATCH + k) as u64;
                    index
                        .insert(&corner(&s, corner_id, (k % 8) as f64))
                        .unwrap();
                }
                for k in 0..BATCH {
                    index.remove(base + k as u64).unwrap();
                }
                if round > 0 {
                    let prev = CHURN_BASE + ((round - 1) * BATCH * 2) as u64;
                    for k in 0..BATCH {
                        index.remove(prev + (BATCH + k) as u64).unwrap();
                    }
                }
                round += 1;
                let enough = reader_passes.load(Ordering::Acquire) >= 6
                    && rebalance_passes.load(Ordering::Acquire) >= 3;
                if (round >= ROUNDS && enough) || round >= 50_000 {
                    break;
                }
                if round.is_multiple_of(16) {
                    std::thread::yield_now();
                }
            }
            rounds_done.store(round, Ordering::Release);
            done.store(true, Ordering::Release);
        });

        // The maintenance thread: unconditional boundary re-cuts, as fast as
        // the layout lock lets it, so queries genuinely overlap migrations.
        scope.spawn(|| {
            let mut passes = 0usize;
            while !done.load(Ordering::Acquire) {
                let outcome = index.rebalance().unwrap();
                if outcome.changed() {
                    passes += 1;
                    rebalance_passes.store(passes, Ordering::Release);
                }
                std::thread::yield_now();
            }
        });

        // Readers: hammer the query set through the serial sweep and the
        // shared-sweep batch walk alternately, and check every answer
        // against the legal-snapshot envelope.
        for reader in 0..2 {
            let s = &s;
            let queries = &queries;
            let anchor_covers = &anchor_covers;
            let index = &index;
            let done = &done;
            let reader_passes = &reader_passes;
            scope.spawn(move || {
                let mut pass = 0usize;
                while !done.load(Ordering::Acquire) || pass == 0 {
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
                                // A churn subscription. Its content is
                                // deterministic from the id (wide batches
                                // cover everything; corner batches are
                                // reconstructed and re-checked), so the
                                // answer is verifiable even after the sub
                                // is removed again.
                                let k = ((id - CHURN_BASE) as usize) % (BATCH * 2);
                                if k >= BATCH {
                                    let jitter = ((k - BATCH) % 8) as f64;
                                    assert!(
                                        corner(s, id, jitter).covers(q),
                                        "corner {id} reported but does not cover query {}",
                                        q.id()
                                    );
                                }
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
                                    "query {} lost its permanent anchor cover mid-migration",
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

    // Quiescence: drain the last churn batch, then the index must answer
    // exactly like the anchors-only sequential model.
    let rounds = rounds_done.load(Ordering::Acquire);
    let last = CHURN_BASE + ((rounds - 1) * BATCH * 2) as u64;
    for k in 0..BATCH {
        index.remove(last + (BATCH + k) as u64).unwrap();
    }
    assert_eq!(index.len(), anchors.len());
    for (q, covers) in queries.iter().zip(&anchor_covers) {
        let outcome = index.find_covering(q).unwrap();
        assert_eq!(outcome.is_covered(), !covers.is_empty());
        if let Some(id) = outcome.covering {
            assert!(covers.contains(&id));
        }
    }

    // Migrations really happened and the accounting survived them.
    let stats = ShardedCoveringIndex::stats(&index);
    assert!(stats.rebalances >= 3, "no real migrations: {stats:?}");
    assert!(stats.subscriptions_migrated > 0);
    assert_eq!(index.shard_lens().iter().sum::<usize>(), anchors.len());
    let churn_inserts = (rounds * BATCH * 2) as u64;
    assert_eq!(stats.inserts, ANCHORS + churn_inserts);
    assert_eq!(stats.removes, churn_inserts);
}

#[test]
fn returned_outcomes_sum_to_the_stats_totals_during_migration() {
    // The accounting invariant: the outcomes the index hands back sum to
    // exactly the query totals `stats()` reports — before, during and after
    // boundary migration, for the serial sweep and the batch walk alike. A
    // maintenance thread churns and migrates continuously while the main
    // thread (the only querier) keeps the running sum.
    let s = schema();
    let population = random_subs(&s, 300, 1, 0xabcd);
    let index = ShardedCoveringIndex::build_from(
        &s,
        ApproxConfig::exhaustive(),
        CurveKind::Z,
        4,
        &population,
    )
    .unwrap();
    let queries = random_subs(&s, 60, 700_000, 0xef01);

    let mut expected = IndexStats::default();
    let mut check = |label: &str| {
        for q in &queries {
            expected.record_query(&index.find_covering(q).unwrap());
        }
        for outcome in index.find_covering_batch(&queries).unwrap() {
            expected.record_query(&outcome);
        }
        // Only the query-side counters: the churn thread owns the rest.
        let query_totals = IndexStats {
            inserts: 0,
            removes: 0,
            rebalances: 0,
            subscriptions_migrated: 0,
            ..index.stats()
        };
        assert_eq!(query_totals, expected, "{label}");
    };
    check("before");

    // During: churn + migrate concurrently with the checks.
    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        scope.spawn(|| {
            let mut i = 0u64;
            while !done.load(Ordering::Acquire) {
                let sub = corner(&s, CHURN_BASE + i, (i % 7) as f64);
                index.insert(&sub).unwrap();
                if i >= 32 {
                    index.remove(CHURN_BASE + i - 32).unwrap();
                }
                if i.is_multiple_of(64) {
                    index.rebalance().unwrap();
                }
                i += 1;
            }
        });
        for _ in 0..4 {
            check("during");
        }
        done.store(true, Ordering::Release);
    });

    // After: one final explicit migration, then the invariant again.
    index.rebalance().unwrap();
    check("after");
}
