//! Criterion bench for E7: subscription-propagation throughput of the broker
//! overlay under the different covering policies, plus event-delivery
//! fan-out (which exercises the serial match-table kernel,
//! `Broker::matching_clients`, through a whole overlay walk),
//! `serial_kernel`, that kernel alone over one broker's 10 000
//! subscriptions, and `rank_kernel`, the batched one
//! (`Broker::matching_clients_mask` over a 64-event `EventChunk`) over the
//! same broker, plus
//! `retraction`: subscribe/unsubscribe pairs on a populated overlay, split
//! by whether the retracted subscription had been sent (the link may be its
//! witness for others and must offer those again) or held back (only its
//! own entry goes), and `churn/stock-ticker-10000`, the repo benchmark's
//! `subscription_churn` stream in process.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};

use acd_broker::{Broker, BrokerConfig, EventCells, EventChunk, Topology};
use acd_covering::CoveringPolicy;
use acd_subscription::Subscription;
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
/// (`Broker::matching_clients`: the event's grid cells against every slot's,
/// its raw values against the few slots the grid leaves) and per-neighbor
/// interest checks.
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

/// The two local match kernels alone, at the repo benchmark's scale: one
/// broker holding 10 000 StockTicker subscriptions of 64 clients. A broker
/// keeps in its tables only the subscriptions no other of the same client
/// covers, so the kernels scan 4 459 slots here, not 10 000.
///
/// `serial_kernel`: 256 events quantised and matched one after another. The
/// grid filter's flag loop is only fast while the compiler turns it into
/// 16-bit vector compares — the same loop over slices of unknown length
/// measured 2x slower — so a toolchain that stops doing that shows here, by
/// name, and not as a drift of `fanout_publish`. Divide by 256 for the cost
/// per event.
///
/// `rank_kernel`: the first 64 of those events tabulated into one
/// `EventChunk` (its cell tables filled) and matched against every slot at
/// once, one table entry per bound. Divide by 64 for the cost per event.
fn bench_match_kernels(c: &mut Criterion) {
    const EVENTS: usize = 256;

    let config = Scenario::StockTicker.workload_config(19);
    let mut workload = SubscriptionWorkload::new(&config).unwrap();
    let schema = workload.schema().clone();
    let events = EventWorkload::with_schema(&config, &schema)
        .unwrap()
        .take(EVENTS);
    let mut broker = Broker::new(0, &[], &schema, CoveringPolicy::None).unwrap();
    for s in workload.take(10_000) {
        broker.add_local(s.id() % 64, s);
    }

    let mut group = c.benchmark_group("serial_kernel");
    group.measurement_time(Duration::from_secs(3));
    group.warm_up_time(Duration::from_secs(1));
    group.bench_function("matching-clients/10000-subscriptions/256-events", |b| {
        b.iter(|| {
            let mut delivered = 0usize;
            for e in &events {
                let cells = EventCells::new(&schema, e).expect("generated under the schema");
                broker.matching_clients(&cells, |_| delivered += 1);
            }
            std::hint::black_box(delivered)
        });
    });
    group.finish();

    let chunk = &events[..EventChunk::WIDTH];
    let mut group = c.benchmark_group("rank_kernel");
    group.measurement_time(Duration::from_secs(3));
    group.warm_up_time(Duration::from_secs(1));
    group.bench_function("matching-clients-mask/10000-subscriptions/64-events", |b| {
        b.iter(|| {
            let chunk = EventChunk::new(&schema, chunk);
            let mut delivered = 0u32;
            broker.matching_clients_mask(&chunk, chunk.valid(), |_, mask| {
                delivered += mask.count_ones();
            });
            std::hint::black_box(delivered)
        });
    });
    group.finish();
}

/// Retraction on a populated overlay, the in-process shape of the repo
/// benchmark's `subscription_churn`: 2 000 standing StockTicker
/// subscriptions on 7 brokers, and per class a pool of 128 churning ones of
/// which 32 are registered at any time. One iteration is one cycle of the
/// pool — 128 pairs of "subscribe a fresh one, unsubscribe the oldest" —
/// so the same subscriptions are registered before every iteration. A
/// candidate is `was-sent` when subscribing it onto the standing set alone
/// sends it on at least one link and `was-held-back` when every link of its
/// home broker holds it back. The witness path is the same code under every
/// policy; three are shown.
fn bench_retraction(c: &mut Criterion) {
    const STANDING: usize = 2_000;
    const POOL: usize = 128;
    const WINDOW: usize = 32;

    let config = Scenario::StockTicker.workload_config(17);
    let mut workload = SubscriptionWorkload::new(&config).unwrap();
    let schema = workload.schema().clone();
    let standing = workload.take(STANDING);
    let candidates = workload.take(12 * POOL);
    let topology = Topology::balanced_tree(2, 2).unwrap(); // 7 brokers
    let home = |s: &Subscription| (s.id() % 7) as usize;

    let mut group = c.benchmark_group("retraction");
    group.measurement_time(Duration::from_secs(3));
    group.warm_up_time(Duration::from_secs(1));
    group.sample_size(10);
    for policy in [
        CoveringPolicy::ExactSfc,
        CoveringPolicy::ExactLinear,
        CoveringPolicy::Approximate { epsilon: 0.05 },
    ] {
        let net = BrokerConfig::new(topology.clone(), &schema)
            .policy(policy)
            .build()
            .unwrap();
        for s in &standing {
            net.subscribe(home(s), s.id() % 64, s).unwrap();
        }
        let (mut sent, mut held) = (Vec::new(), Vec::new());
        for s in &candidates {
            let before = net.metrics().subscription_messages;
            net.subscribe(home(s), 0, s).unwrap();
            let went_out = net.metrics().subscription_messages > before;
            net.unsubscribe(home(s), s.id()).unwrap();
            let class = if went_out { &mut sent } else { &mut held };
            if class.len() < POOL {
                class.push(s);
            }
        }
        for (class, pool) in [("was-sent", &sent), ("was-held-back", &held)] {
            assert_eq!(pool.len(), POOL, "too few {class} candidates");
            for s in &pool[..WINDOW] {
                net.subscribe(home(s), 0, s).unwrap();
            }
            group.bench_function(format!("{}/{class}", policy.label()), |b| {
                b.iter(|| {
                    for (i, oldest) in pool.iter().enumerate() {
                        let fresh = pool[(i + WINDOW) % POOL];
                        net.subscribe(home(fresh), 0, fresh).unwrap();
                        net.unsubscribe(home(oldest), oldest.id()).unwrap();
                    }
                });
            });
            // Whole cycles only: the registered window is the first one again.
            for s in &pool[..WINDOW] {
                net.unsubscribe(home(s), s.id()).unwrap();
            }
        }
    }
    bench_churn(&mut group);
    group.finish();
}

/// The repo benchmark's `subscription_churn` stream without the daemon:
/// 10 000 standing StockTicker subscriptions, subscription `id` at broker
/// `id % 7` for client `id % 64`, under `ExactSfc` on `balanced_tree(2, 2)`,
/// then pairs "subscribe the next fresh one, unsubscribe the oldest
/// churning one" over a pool of 2 048 with 512 live at any time. One
/// iteration is one pair; the stream is stationary, so the pairs a sample
/// times are alike wherever the pool stands.
fn bench_churn(group: &mut criterion::BenchmarkGroup<'_>) {
    const STANDING: usize = 10_000;
    const WINDOW: usize = 512;

    let config = Scenario::StockTicker.workload_config(1);
    let mut workload = SubscriptionWorkload::new(&config).unwrap();
    let schema = workload.schema().clone();
    let standing = workload.take(STANDING);
    let pool = workload.take(4 * WINDOW);
    let home = |s: &Subscription| ((s.id() % 7) as usize, s.id() % 64);
    let net = BrokerConfig::new(Topology::balanced_tree(2, 2).unwrap(), &schema)
        .policy(CoveringPolicy::ExactSfc)
        .build()
        .unwrap();
    for s in standing.iter().chain(&pool[..WINDOW]) {
        let (at, client) = home(s);
        net.subscribe(at, client, s).unwrap();
    }
    let mut step = 0;
    group.bench_function("churn/stock-ticker-10000", |b| {
        b.iter(|| {
            let (fresh, oldest) = (
                &pool[(step + WINDOW) % pool.len()],
                &pool[step % pool.len()],
            );
            let (at, client) = home(fresh);
            net.subscribe(at, client, fresh).unwrap();
            net.unsubscribe(home(oldest).0, oldest.id()).unwrap();
            step += 1;
        });
    });
}

criterion_group!(
    benches,
    bench_propagation,
    bench_delivery,
    bench_match_kernels,
    bench_retraction
);
criterion_main!(benches);
