//! Criterion bench: index-construction throughput — `n` incremental inserts
//! against the one-sort bulk path (`SfcCoveringIndex::build_from`), at
//! several population sizes. Query latency over populations of these sizes
//! is `experiments e05`'s table.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use acd_covering::{ApproxConfig, CoveringIndex, SfcCoveringIndex};
use acd_sfc::CurveKind;
use acd_workload::{SubscriptionWorkload, WorkloadConfig};

fn bench_build(c: &mut Criterion) {
    let config = WorkloadConfig::builder()
        .attributes(3)
        .bits_per_attribute(10)
        .seed(404)
        .build()
        .unwrap();
    let mut workload = SubscriptionWorkload::new(&config).unwrap();
    let schema = workload.schema().clone();
    let population = workload.take(10_000);

    let mut group = c.benchmark_group("build_throughput");
    group.measurement_time(Duration::from_secs(3));
    group.warm_up_time(Duration::from_secs(1));
    group.sample_size(10);
    for n in [1_000usize, 4_000, 10_000] {
        let subs = &population[..n];
        group.bench_with_input(BenchmarkId::new("incremental", n), &n, |b, _| {
            b.iter(|| {
                let mut index = SfcCoveringIndex::exhaustive(&schema).unwrap();
                for s in subs {
                    index.insert(s).unwrap();
                }
                std::hint::black_box(index.len())
            });
        });
        group.bench_with_input(BenchmarkId::new("bulk", n), &n, |b, _| {
            b.iter(|| {
                let index = SfcCoveringIndex::build_from(
                    &schema,
                    ApproxConfig::exhaustive(),
                    CurveKind::Z,
                    subs,
                )
                .unwrap();
                std::hint::black_box(index.len())
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_build);
criterion_main!(benches);
