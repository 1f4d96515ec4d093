//! Criterion bench for the two publish shapes over the brokers' match
//! tables: the same 64-event burst delivered by a loop of
//! `BrokerNetwork::publish` (one event against 64 table slots at a time)
//! and by one `BrokerNetwork::publish_batch` (one slot against 64 events at
//! a time). Each standing population is installed twice: with one client
//! per subscription, where every match is a delivery, and spread over 64
//! shared clients (the repo benchmark's shape), where a client's adjacent
//! matches collapse before the final sort. Divide a row by 64 for the
//! per-event cost README "Batched publish execution" records.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use acd_broker::{BrokerConfig, BrokerNetwork, Topology};
use acd_covering::CoveringPolicy;
use acd_workload::{EventWorkload, Scenario, SubscriptionWorkload};

/// Events per burst: one `EventChunk`.
const EVENTS: usize = 64;

/// A populated overlay plus an event burst, shared by both publish shapes.
/// Subscription `i` belongs to client `i % clients`.
fn build(subscriptions: usize, clients: u64) -> (BrokerNetwork, Vec<acd_subscription::Event>) {
    let config = Scenario::StockTicker.workload_config(17);
    let mut workload = SubscriptionWorkload::new(&config).unwrap();
    let schema = workload.schema().clone();
    let population = workload.take(subscriptions);
    let stream = EventWorkload::with_schema(&config, &schema)
        .unwrap()
        .take(EVENTS);
    let topology = Topology::balanced_tree(2, 3).unwrap(); // 15 brokers
    let net = BrokerConfig::new(topology, &schema)
        .policy(CoveringPolicy::ExactSfc)
        .build()
        .unwrap();
    for (i, s) in population.iter().enumerate() {
        let at = (i * 7) % net.topology().brokers();
        net.subscribe(at, i as u64 % clients, s).unwrap();
    }
    (net, stream)
}

fn bench_batched_publish(c: &mut Criterion) {
    let mut group = c.benchmark_group("batched_publish");
    group.measurement_time(Duration::from_secs(3));
    group.warm_up_time(Duration::from_secs(1));
    for subscriptions in [500usize, 2_000, 10_000] {
        for (population, clients) in [("own-client", u64::MAX), ("64-clients", 64)] {
            let (net, events) = build(subscriptions, clients);
            group.bench_with_input(
                BenchmarkId::new(&format!("publish-loop/{population}"), subscriptions),
                &subscriptions,
                |b, _| {
                    b.iter(|| {
                        let mut delivered = 0usize;
                        for e in &events {
                            delivered += net.publish(3, e).unwrap().len();
                        }
                        std::hint::black_box(delivered)
                    });
                },
            );
            group.bench_with_input(
                BenchmarkId::new(&format!("publish_batch/{population}"), subscriptions),
                &subscriptions,
                |b, _| {
                    b.iter(|| {
                        let lists = net.publish_batch(3, &events).unwrap();
                        std::hint::black_box(lists.iter().map(Vec::len).sum::<usize>())
                    });
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_batched_publish);
criterion_main!(benches);
