//! Criterion bench for the two publish shapes over the brokers' match
//! tables: the same burst delivered by a loop of `BrokerNetwork::publish`
//! (one event at a time: its 16-bit grid cells against 64 slots' cell
//! columns per pass, its raw values against the bounds of the few slots the
//! grid leaves) and by one `BrokerNetwork::publish_batch` (the burst's
//! events tabulated by grid cell once per 64-event chunk, every slot's
//! stored cells reading event masks off that table, a raw value read only
//! where an event the slot matched shares the cell of one of its open bounds;
//! a chunk too short to repay that takes the serial walk). Each standing
//! population is installed twice: with one client per subscription, where
//! every match is a delivery, and spread over 64 shared clients (the repo
//! benchmark's shape), where a client's adjacent matches collapse into one
//! delivery. At 10 000 subscriptions the burst length
//! varies: a batched pass costs per slot, not per event, so it pays from
//! some length on — the evidence for `publish_batch`'s short-chunk
//! crossover that README "Batched publish execution" records.
//!
//! A second group, `deliveries_codec`, times what follows the walk on either
//! path: `encode_frame` and `read_frame` over one event's `Deliveries` — the
//! repo benchmark's 330 pairs (7 brokers, 47 of 64 clients each) and the
//! empty list every non-matching publish answers with — and the daemon's
//! encoder (`wire::put_deliveries_frames`) fed the triples a walk emits: as
//! `encode_burst`, for a whole 64-event chunk, and as `encode_lone`, for one
//! event's pages, the same 330 pairs as seven 47-client pages.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use acd_broker::network::Triple;
use acd_broker::wire::{encode_frame, put_deliveries_frames, read_frame, Frame};
use acd_broker::{BrokerConfig, BrokerNetwork, EventChunk, Topology};
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
        (10_000, &[2, 8, 13, 14, 16, 32, 64, 128]),
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

/// A 64-event chunk's answer as a walk emits it: 7 brokers x 64 clients,
/// ascending, each client's event mask holding about 74 % of the events (the
/// repo benchmark's 47 of 64 clients an event, seen from a client). The
/// masks come from a fixed xorshift stream.
fn burst_triples() -> Vec<Triple> {
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut triples = Vec::new();
    for broker in 0..7 {
        for client in 0..64 {
            let mut mask = 0u64;
            for event in 0..64 {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                mask |= u64::from(state % 100 < 74) << event;
            }
            triples.push((broker, client, mask));
        }
    }
    triples
}

fn bench_deliveries_codec(c: &mut Criterion) {
    let mut group = c.benchmark_group("deliveries_codec");
    group.measurement_time(Duration::from_secs(2));
    group.warm_up_time(Duration::from_secs(1));
    let spread = (0..7usize).flat_map(|broker| {
        (0..64u64)
            .filter(|client| client * 47 / 64 != (client + 1) * 47 / 64)
            .map(move |client| (broker, client))
    });
    for (shape, pairs) in [("330-pairs", spread.collect()), ("empty", Vec::new())] {
        let frame = Frame::Deliveries { pairs };
        let mut encoded = Vec::new();
        group.bench_function(BenchmarkId::new("encode", shape), |b| {
            b.iter(|| {
                encode_frame(std::hint::black_box(&frame), &mut encoded);
                std::hint::black_box(encoded.len())
            });
        });
        let mut scratch = Vec::new();
        group.bench_function(BenchmarkId::new("decode", shape), |b| {
            b.iter(|| read_frame(&mut std::hint::black_box(encoded.as_slice()), &mut scratch));
        });
    }
    // One page per broker, holding the 47 clients `spread` delivers.
    let page = (0..64u64)
        .filter(|client| client * 47 / 64 != (client + 1) * 47 / 64)
        .fold(0u64, |bits, client| bits | 1 << client);
    let pages: Vec<Triple> = (0..7).map(|broker| (broker, 0, page)).collect();
    let (mut out, mut payloads) = (Vec::new(), Vec::new());
    group.bench_function("encode_lone", |b| {
        b.iter(|| {
            out.clear();
            put_deliveries_frames(&mut out, std::hint::black_box(&pages), 1, &mut payloads);
            std::hint::black_box(out.len())
        });
    });
    let triples = burst_triples();
    group.bench_function("encode_burst", |b| {
        b.iter(|| {
            out.clear();
            let events = EventChunk::WIDTH;
            put_deliveries_frames(
                &mut out,
                std::hint::black_box(&triples),
                events,
                &mut payloads,
            );
            std::hint::black_box(out.len())
        });
    });
    group.finish();
}

criterion_group!(benches, bench_batched_publish, bench_deliveries_codec);
criterion_main!(benches);
