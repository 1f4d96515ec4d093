//! Criterion bench: sharded covering-index throughput under churn, at 1, 2
//! and 4 key-range shards over an n = 10k population.
//!
//! Three measurements per shard count:
//!
//! * `queries` — serial covering-query latency through the sequential shard
//!   sweep (shows the cost of visiting multiple shards when there is no
//!   concurrency to win back);
//! * `updates` — paired subscribe/unsubscribe churn (shows the algorithmic
//!   win: smaller shards mean smaller staging levels and cheaper merges);
//! * `concurrent-queries` — a reader-thread team racing a churn writer,
//!   total queries per iteration fixed (shows the lock-contention win of
//!   4 over 1 shards on multi-core machines; measured here, gated nowhere).
//!
//! One further group covers online rebalancing:
//!
//! * `drift_updates` — paired insert/remove churn on a drifted skewed
//!   population with frozen boundaries vs the auto-rebalance policy armed.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use acd_bench::experiments::e13_churn::DriftHarness;
use acd_covering::{ApproxConfig, ShardedCoveringIndex};
use acd_sfc::CurveKind;
use acd_workload::{SubscriptionWorkload, WorkloadConfig};

fn bench_churn(c: &mut Criterion) {
    let config = WorkloadConfig::builder()
        .attributes(3)
        .bits_per_attribute(10)
        .seed(404)
        .build()
        .unwrap();
    let mut workload = SubscriptionWorkload::new(&config).unwrap();
    let schema = workload.schema().clone();
    let population = workload.take(10_000);
    let queries = workload.take(64);
    let churn: Vec<_> = workload.take(256);

    let readers = std::thread::available_parallelism()
        .map(|p| p.get().saturating_sub(1))
        .unwrap_or(1)
        .clamp(1, 4);

    let mut group = c.benchmark_group("churn_throughput");
    group.measurement_time(Duration::from_secs(3));
    group.warm_up_time(Duration::from_secs(1));
    group.sample_size(10);
    for shards in [1usize, 2, 4] {
        let index = ShardedCoveringIndex::build_from(
            &schema,
            ApproxConfig::exhaustive(),
            CurveKind::Z,
            shards,
            &population,
        )
        .unwrap();

        group.bench_with_input(BenchmarkId::new("queries", shards), &shards, |b, _| {
            b.iter(|| {
                let mut hits = 0usize;
                for q in &queries {
                    hits += usize::from(index.find_covering(q).unwrap().is_covered());
                }
                std::hint::black_box(hits)
            });
        });

        group.bench_with_input(BenchmarkId::new("updates", shards), &shards, |b, _| {
            b.iter(|| {
                for sub in &churn {
                    index.insert(sub).unwrap();
                }
                for sub in &churn {
                    index.remove(sub.id()).unwrap();
                }
                std::hint::black_box(ShardedCoveringIndex::len(&index))
            });
        });

        group.bench_with_input(
            BenchmarkId::new("concurrent-queries", shards),
            &shards,
            |b, _| {
                b.iter(|| {
                    // Readers drain a fixed query budget while a writer
                    // churns; the iteration ends when the queries are done.
                    let stop = AtomicBool::new(false);
                    let total: usize = std::thread::scope(|scope| {
                        let writer = scope.spawn(|| {
                            let mut i = 0usize;
                            while !stop.load(Ordering::Acquire) {
                                let sub = &churn[i % churn.len()];
                                index.insert(sub).unwrap();
                                index.remove(sub.id()).unwrap();
                                i += 1;
                            }
                        });
                        let counts: Vec<_> = (0..readers)
                            .map(|_| {
                                scope.spawn(|| {
                                    let mut n = 0usize;
                                    for _ in 0..4 {
                                        for q in &queries {
                                            std::hint::black_box(index.find_covering(q).unwrap());
                                            n += 1;
                                        }
                                    }
                                    n
                                })
                            })
                            .collect();
                        let total = counts.into_iter().map(|h| h.join().unwrap()).sum();
                        stop.store(true, Ordering::Release);
                        writer.join().unwrap();
                        total
                    });
                    std::hint::black_box(total)
                });
            },
        );
    }
    group.finish();
}

fn bench_drift_updates(c: &mut Criterion) {
    let n = 10_000usize;
    let mut group = c.benchmark_group("drift_updates");
    group.measurement_time(Duration::from_secs(3));
    group.warm_up_time(Duration::from_secs(1));
    group.sample_size(10);
    for (label, rebalance) in [("frozen", false), ("rebalanced", true)] {
        // DriftHarness drifts the hot region and replaces the population
        // once, so the frozen variant measures its concentrated steady
        // state (the same protocol as e13's table).
        let mut harness = DriftHarness::new(n, rebalance, 808);
        group.bench_with_input(BenchmarkId::new("updates", label), &label, |b, _| {
            b.iter(|| {
                for _ in 0..64 {
                    harness.paired_update();
                }
                std::hint::black_box(ShardedCoveringIndex::len(&harness.index))
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_churn, bench_drift_updates);
criterion_main!(benches);
