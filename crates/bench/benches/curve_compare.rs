//! Criterion bench comparing the Z, Hilbert and Gray-code curves as the
//! index substrate (the paper's remark, following [MJFS01], is that their
//! costs are within a constant factor of each other). That remark is about
//! run counts, so every curve runs the paper's eager engine, the only one
//! Hilbert and Gray support.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};

use acd_covering::{ApproxConfig, CoveringIndex, QueryEngine, SfcCoveringIndex};
use acd_sfc::CurveKind;
use acd_workload::{SubscriptionWorkload, WorkloadConfig};

fn bench_curves(c: &mut Criterion) {
    let config = WorkloadConfig::builder()
        .attributes(3)
        .bits_per_attribute(10)
        .seed(5)
        .build()
        .unwrap();
    let mut workload = SubscriptionWorkload::new(&config).unwrap();
    let schema = workload.schema().clone();
    let population = workload.take(10_000);
    let queries = workload.take(64);

    let mut group = c.benchmark_group("curve_compare");
    group.measurement_time(Duration::from_secs(3));
    group.warm_up_time(Duration::from_secs(1));
    let eager = ApproxConfig::with_epsilon(0.05)
        .unwrap()
        .engine(QueryEngine::EagerRuns);
    for curve in CurveKind::all() {
        let mut index = SfcCoveringIndex::with_curve(&schema, eager, curve).unwrap();
        for s in &population {
            index.insert(s).unwrap();
        }
        group.bench_function(curve.name(), |b| {
            let mut i = 0usize;
            b.iter(|| {
                let q = &queries[i % queries.len()];
                i += 1;
                std::hint::black_box(index.find_covering(q).unwrap())
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_curves);
criterion_main!(benches);
