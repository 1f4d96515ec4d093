//! E5 — end-to-end covering-detection cost: approximate vs exhaustive SFC vs
//! linear scan.
//!
//! The paper's headline claim is that approximate covering yields "most of
//! the benefits of exhaustive covering at a small fraction of the cost". This
//! experiment populates each index with the same synthetic subscription
//! population and measures, per arriving subscription, the covering-detection
//! work (runs probed / subscriptions compared) and wall-clock latency,
//! broken down by whether the arriving subscription was actually covered.

use std::time::Instant;

use acd_covering::{ApproxConfig, CoveringIndex, LinearScanIndex, QueryEngine, SfcCoveringIndex};
use acd_subscription::Subscription;
use acd_workload::{SubscriptionWorkload, WorkloadConfig};

use crate::table::{fmt_f64, Table};
use crate::RunScale;

/// Cost counters of one measured index: one row of the table.
struct PolicyCost {
    /// Index name, e.g. `sfc-z-exhaustive`.
    name: String,
    /// Mean runs probed per query.
    mean_runs_probed: f64,
    /// Mean ordered-array probes (gallops plus run probes) per query.
    mean_probes: f64,
    /// Mean gap-crossing skips per query.
    mean_runs_skipped: f64,
    /// Mean subscriptions compared per query (linear baseline only).
    mean_comparisons: f64,
    /// Mean per-query latency in microseconds.
    mean_latency_us: f64,
    /// Total wall-clock time for the whole query batch, in milliseconds.
    total_time_ms: f64,
    /// Number of queries that found a covering subscription.
    covered_found: u64,
}

/// Populates `index`, times the query batch, and extracts the cost counters.
fn measure_policy(
    index: &mut dyn CoveringIndex,
    population: &[Subscription],
    queries: &[Subscription],
) -> PolicyCost {
    for s in population {
        index.insert(s).expect("insert population");
    }
    let start = Instant::now();
    let mut covered_found = 0u64;
    for q in queries {
        if index.find_covering(q).expect("query").is_covered() {
            covered_found += 1;
        }
    }
    let elapsed = start.elapsed();
    let stats = index.stats();
    PolicyCost {
        name: index.name().to_string(),
        mean_runs_probed: stats.mean_runs_per_query(),
        mean_probes: stats.mean_probes_per_query(),
        mean_runs_skipped: stats.mean_skips_per_query(),
        mean_comparisons: stats.mean_comparisons_per_query(),
        mean_latency_us: elapsed.as_secs_f64() * 1e6 / queries.len() as f64,
        total_time_ms: elapsed.as_secs_f64() * 1e3,
        covered_found,
    }
}

/// Runs the experiment.
pub fn run(scale: RunScale) -> Vec<Table> {
    let config = WorkloadConfig::builder()
        .attributes(2)
        .bits_per_attribute(10)
        .seed(2024)
        .build()
        .unwrap();
    let mut workload = SubscriptionWorkload::new(&config).unwrap();
    let schema = workload.schema().clone();
    let population = workload.take(scale.subscriptions);
    let queries = workload.take(scale.queries);

    let mut table = Table::new(
        format!(
            "E5 — covering detection cost, n = {} subscriptions, {} query subscriptions (2 attributes)",
            scale.subscriptions, scale.queries
        ),
        &[
            "index",
            "mean runs probed",
            "mean probes",
            "mean runs skipped",
            "mean subs compared",
            "covered found",
            "mean latency (us)",
            "total time (ms)",
        ],
    );

    let mut indexes: Vec<Box<dyn CoveringIndex>> = vec![
        Box::new(LinearScanIndex::new(&schema)),
        Box::new(SfcCoveringIndex::exhaustive(&schema).unwrap()),
        // The PR-1 baseline engine, kept for the before/after comparison.
        Box::new(
            SfcCoveringIndex::with_curve(
                &schema,
                ApproxConfig::exhaustive().engine(QueryEngine::EagerRuns),
                acd_sfc::CurveKind::Z,
            )
            .unwrap(),
        ),
        Box::new(
            SfcCoveringIndex::approximate(&schema, ApproxConfig::with_epsilon(0.05).unwrap())
                .unwrap(),
        ),
        Box::new(
            SfcCoveringIndex::approximate(&schema, ApproxConfig::with_epsilon(0.01).unwrap())
                .unwrap(),
        ),
        Box::new(
            SfcCoveringIndex::approximate(&schema, ApproxConfig::with_epsilon(0.3).unwrap())
                .unwrap(),
        ),
    ];

    for index in indexes.iter_mut() {
        let m = measure_policy(index.as_mut(), &population, &queries);
        table.add_row(vec![
            if index.name().contains("approximate") {
                format!(
                    "{} (eps={})",
                    m.name,
                    match indexes_epsilon(index.as_ref()) {
                        Some(e) => e.to_string(),
                        None => "?".to_string(),
                    }
                )
            } else {
                m.name
            },
            fmt_f64(m.mean_runs_probed),
            fmt_f64(m.mean_probes),
            fmt_f64(m.mean_runs_skipped),
            fmt_f64(m.mean_comparisons),
            m.covered_found.to_string(),
            fmt_f64(m.mean_latency_us),
            fmt_f64(m.total_time_ms),
        ]);
    }
    vec![table]
}

/// Best-effort extraction of the epsilon of an SFC index for labelling.
fn indexes_epsilon(index: &dyn CoveringIndex) -> Option<f64> {
    // The trait does not expose the configuration; parse it from Debug
    // output to keep the trait minimal.
    let debug = format!("{index:?}");
    debug
        .split("epsilon: ")
        .nth(1)
        .and_then(|rest| rest.split([' ', '}', ',']).next())
        .and_then(|s| s.parse().ok())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn skip_engine_beats_eager_and_finds_every_cover() {
        let tables = run(RunScale::quick());
        let csv = tables[0].to_csv();
        let rows: Vec<Vec<String>> = csv
            .lines()
            .skip(1)
            .map(|l| l.split(',').map(|s| s.to_string()).collect())
            .collect();
        assert_eq!(rows.len(), 6);
        let linear_comparisons: f64 = rows[0][4].parse().unwrap();
        let linear_covered: f64 = rows[0][5].parse().unwrap();
        let exhaustive_runs: f64 = rows[1][1].parse().unwrap();
        let exhaustive_probes: f64 = rows[1][2].parse().unwrap();
        let exhaustive_covered: f64 = rows[1][5].parse().unwrap();
        let eager_runs: f64 = rows[2][1].parse().unwrap();
        let eager_covered: f64 = rows[2][5].parse().unwrap();
        let approx05_runs: f64 = rows[3][1].parse().unwrap();
        let approx05_covered: f64 = rows[3][5].parse().unwrap();
        // Exhaustive SFC finds exactly what the linear scan finds, on both
        // engines.
        assert_eq!(linear_covered, exhaustive_covered);
        assert_eq!(linear_covered, eager_covered);
        // The skip engine's whole point: per-query probes well below the
        // linear baseline's comparisons.
        assert!(exhaustive_probes < linear_comparisons);
        // The populated-key sweep probes an order of magnitude fewer runs
        // than the eager enumeration it replaced.
        assert!(
            exhaustive_runs * 10.0 <= eager_runs,
            "skip {exhaustive_runs} vs eager {eager_runs}"
        );
        // The approximate query never probes more than the exhaustive one...
        assert!(approx05_runs <= exhaustive_runs.max(1.0));
        // ...and still detects the vast majority of covered subscriptions.
        assert!(approx05_covered >= exhaustive_covered * 0.7);
    }
}
