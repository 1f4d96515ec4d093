//! Criterion bench for E7: subscription-propagation throughput of the broker
//! overlay under the different covering policies, plus event-delivery
//! fan-out (which exercises the serial match-table kernel,
//! `Broker::matching_clients`).

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};

use acd_broker::{BrokerConfig, Topology};
use acd_covering::CoveringPolicy;
use acd_workload::{EventWorkload, Scenario, SubscriptionWorkload};

fn bench_propagation(c: &mut Criterion) {
    let config = Scenario::StockTicker.workload_config(11);
    let mut workload = SubscriptionWorkload::new(&config).unwrap();
    let schema = workload.schema().clone();
    let subscriptions = workload.take(500);
    let topology = Topology::balanced_tree(2, 3).unwrap(); // 15 brokers

    let mut group = c.benchmark_group("broker_propagation");
    group.measurement_time(Duration::from_secs(3));
    group.warm_up_time(Duration::from_secs(1));
    group.sample_size(10);
    for policy in [
        CoveringPolicy::None,
        CoveringPolicy::ExactLinear,
        CoveringPolicy::ExactSfc,
        CoveringPolicy::Approximate { epsilon: 0.05 },
    ] {
        group.bench_function(policy.label(), |b| {
            b.iter_batched(
                || {
                    BrokerConfig::new(topology.clone(), &schema)
                        .policy(policy)
                        .build()
                        .unwrap()
                },
                |net| {
                    for (i, s) in subscriptions.iter().enumerate() {
                        let at = (i * 7) % net.topology().brokers();
                        net.subscribe(at, i as u64, s).unwrap();
                    }
                    std::hint::black_box(net.metrics())
                },
                BatchSize::LargeInput,
            );
        });
    }
    group.finish();
}

/// Event fan-out: a populated overlay delivering a stream of events. The
/// per-event cost is dominated by local matching
/// (`Broker::matching_clients`) and per-neighbor interest checks.
fn bench_delivery(c: &mut Criterion) {
    let config = Scenario::StockTicker.workload_config(13);
    let mut workload = SubscriptionWorkload::new(&config).unwrap();
    let schema = workload.schema().clone();
    let subscriptions = workload.take(500);
    let events = EventWorkload::with_schema(&config, &schema)
        .unwrap()
        .take(200);
    let topology = Topology::balanced_tree(2, 3).unwrap(); // 15 brokers

    let net = BrokerConfig::new(topology, &schema)
        .policy(CoveringPolicy::ExactSfc)
        .build()
        .unwrap();
    for (i, s) in subscriptions.iter().enumerate() {
        let at = (i * 7) % net.topology().brokers();
        net.subscribe(at, i as u64, s).unwrap();
    }

    let mut group = c.benchmark_group("broker_delivery");
    group.measurement_time(Duration::from_secs(3));
    group.warm_up_time(Duration::from_secs(1));
    group.bench_function("publish-200-events", |b| {
        b.iter(|| {
            let mut delivered = 0usize;
            for (i, e) in events.iter().enumerate() {
                delivered += net.publish(i % 15, e).unwrap().len();
            }
            std::hint::black_box(delivered)
        });
    });
    group.finish();
}

criterion_group!(benches, bench_propagation, bench_delivery);
criterion_main!(benches);
