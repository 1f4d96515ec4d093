//! Criterion bench for E3/E5: covering-query latency as a function of the
//! approximation parameter ε.
//!
//! Regenerates the timing series behind the paper's claim that an
//! ε-approximate query is much cheaper than an exhaustive one, on a realistic
//! subscription population. ε only acts under the paper's eager engine (the
//! default populated-key sweep always searches the whole region, so it is
//! exact for every ε), so the ε series pins [`QueryEngine::EagerRuns`]. The
//! `skip/exhaustive` case times the query the daemon serves: the default
//! engine on an index filled by incremental inserts, so its staging level is
//! populated as a link's is.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use acd_covering::{ApproxConfig, CoveringIndex, QueryEngine, SfcCoveringIndex};
use acd_workload::{SubscriptionWorkload, WorkloadConfig};

fn bench_epsilon_sweep(c: &mut Criterion) {
    let config = WorkloadConfig::builder()
        .attributes(3)
        .bits_per_attribute(10)
        .seed(1)
        .build()
        .unwrap();
    let mut workload = SubscriptionWorkload::new(&config).unwrap();
    let schema = workload.schema().clone();
    let population = workload.take(10_000);
    let queries = workload.take(64);

    let mut group = c.benchmark_group("approx_query_epsilon");
    group.measurement_time(Duration::from_secs(3));
    group.warm_up_time(Duration::from_secs(1));
    let filled = |config: ApproxConfig| -> SfcCoveringIndex {
        let mut index = SfcCoveringIndex::new(&schema, config).unwrap();
        for s in &population {
            index.insert(s).unwrap();
        }
        index
    };
    let mut time_queries = |id: BenchmarkId, mut index: SfcCoveringIndex| {
        group.bench_function(id, |b| {
            let mut i = 0usize;
            b.iter(|| {
                let q = &queries[i % queries.len()];
                i += 1;
                std::hint::black_box(index.find_covering(q).unwrap())
            });
        });
    };
    for &eps in &[0.3f64, 0.1, 0.05, 0.01] {
        let config = ApproxConfig::with_epsilon(eps)
            .unwrap()
            .engine(QueryEngine::EagerRuns);
        time_queries(BenchmarkId::new("eager", eps), filled(config));
    }
    time_queries(
        BenchmarkId::new("skip", "exhaustive"),
        filled(ApproxConfig::exhaustive()),
    );
    group.finish();
}

criterion_group!(benches, bench_epsilon_sweep);
criterion_main!(benches);
