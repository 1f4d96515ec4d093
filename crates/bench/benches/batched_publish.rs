//! Criterion bench for the two publish shapes over the brokers' match
//! tables: the same burst delivered by a loop of `BrokerNetwork::publish`
//! (one event against 64 table slots at a time, every slot compared with
//! every event) and by one `BrokerNetwork::publish_batch` (the burst's
//! values sorted once per 64-event chunk, every slot's bounds bisected into
//! them). Each standing population is installed twice: with one client per
//! subscription, where every match is a delivery, and spread over 64 shared
//! clients (the repo benchmark's shape), where a client's adjacent matches
//! collapse into one delivery. At 10 000 subscriptions the burst length
//! varies: a rank-space pass costs per slot, not per event, so it pays from
//! some length on — the evidence for `publish_batch`'s short-chunk
//! crossover. Divide a row by its burst length for the per-event cost README
//! "Batched publish execution" records.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use acd_broker::{BrokerConfig, BrokerNetwork, Topology};
use acd_covering::CoveringPolicy;
use acd_workload::{EventWorkload, Scenario, SubscriptionWorkload};

/// The longest burst: two `EventChunk`s.
const EVENTS: usize = 128;

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
    let one_chunk: &[usize] = &[64];
    for (subscriptions, bursts) in [
        (500usize, one_chunk),
        (2_000, one_chunk),
        (10_000, &[2, 8, 32, 64, 128]),
    ] {
        for (population, clients) in [("own-client", u64::MAX), ("64-clients", 64)] {
            let (net, events) = build(subscriptions, clients);
            for &burst in bursts {
                let events = &events[..burst];
                group.bench_with_input(
                    BenchmarkId::new(&format!("publish-loop/{population}/{subscriptions}"), burst),
                    &burst,
                    |b, _| {
                        b.iter(|| {
                            let mut delivered = 0usize;
                            for e in events {
                                delivered += net.publish(3, e).unwrap().len();
                            }
                            std::hint::black_box(delivered)
                        });
                    },
                );
                group.bench_with_input(
                    BenchmarkId::new(
                        &format!("publish_batch/{population}/{subscriptions}"),
                        burst,
                    ),
                    &burst,
                    |b, _| {
                        b.iter(|| {
                            let lists = net.publish_batch(3, events).unwrap();
                            std::hint::black_box(lists.iter().map(Vec::len).sum::<usize>())
                        });
                    },
                );
            }
        }
    }
    group.finish();
}

criterion_group!(benches, bench_batched_publish);
criterion_main!(benches);
