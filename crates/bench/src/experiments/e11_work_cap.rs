//! E11 — ablation of the work-cap / exact-scan fallback (a design choice of
//! this implementation, documented on `ApproxConfig`).
//!
//! The index never lets one query enumerate more standard cubes than a
//! configurable budget; past the budget it switches to an exact scan of the
//! stored points. This experiment varies the budget on a two-attribute
//! workload — small enough that the unbounded algorithm is tractable — and
//! shows that (a) answers are identical across budgets, (b) the budget trades
//! a bounded amount of extra scanning for a hard ceiling on decomposition
//! work, and (c) the default budget leaves the common case untouched.

use acd_covering::{ApproxConfig, CoveringIndex, LinearScanIndex, QueryEngine, SfcCoveringIndex};
use acd_workload::{SubscriptionWorkload, WorkloadConfig};

use crate::table::{fmt_f64, Table};
use crate::RunScale;

/// Runs the experiment.
pub fn run(scale: RunScale) -> Vec<Table> {
    let config = WorkloadConfig::builder()
        .attributes(2)
        .bits_per_attribute(10)
        .seed(808)
        .build()
        .unwrap();
    let mut workload = SubscriptionWorkload::new(&config).unwrap();
    let schema = workload.schema().clone();
    let population = workload.take(scale.subscriptions.min(8_000));
    let queries = workload.take(scale.queries);

    // Ground truth (which arrivals are covered) from the exact baseline.
    let mut exact = LinearScanIndex::new(&schema);
    for s in &population {
        exact.insert(s).unwrap();
    }
    let truth: Vec<bool> = queries
        .iter()
        .map(|q| exact.find_covering(q).unwrap().is_covered())
        .collect();

    let mut table = Table::new(
        format!(
            "E11 — work-cap ablation (2 attributes, n = {}, {} query subscriptions, eps = 0.05)",
            population.len(),
            queries.len()
        ),
        &[
            "work cap",
            "mean runs probed",
            "mean cubes enumerated",
            "fallback queries",
            "detected",
            "answers differ from largest cap",
        ],
    );

    // The ablation runs on the eager engine — the work cap was designed to
    // bound *its* cube enumeration; a final row shows the skip engine, which
    // takes no cap (its sweep visits each populated cell at most once). The
    // largest budget is effectively unbounded for this workload (the index
    // additionally scales the budget with the population size, so the pure
    // algorithm runs untouched for every tractable query).
    let caps: Vec<(String, Option<usize>, QueryEngine)> = vec![
        (
            "1048576".to_string(),
            Some(1_048_576),
            QueryEngine::EagerRuns,
        ),
        ("65536".to_string(), Some(65_536), QueryEngine::EagerRuns),
        (
            "8192 (default)".to_string(),
            Some(8_192),
            QueryEngine::EagerRuns,
        ),
        ("1024".to_string(), Some(1_024), QueryEngine::EagerRuns),
        ("128".to_string(), Some(128), QueryEngine::EagerRuns),
        ("skip engine".to_string(), None, QueryEngine::SkipPopulated),
    ];

    let mut reference_answers: Option<Vec<bool>> = None;
    for (label, cap, engine) in caps {
        let cfg = ApproxConfig::with_epsilon(0.05)
            .unwrap()
            .work_cap(cap)
            .engine(engine);
        let mut index = SfcCoveringIndex::approximate(&schema, cfg).unwrap();
        for s in &population {
            index.insert(s).unwrap();
        }
        let mut answers = Vec::with_capacity(queries.len());
        let mut detected = 0usize;
        for (q, &covered) in queries.iter().zip(&truth) {
            let outcome = index.find_covering(q).unwrap();
            if outcome.is_covered() {
                assert!(covered, "false positive under work cap {label}");
                detected += 1;
            }
            answers.push(outcome.is_covered());
        }
        let stats = index.stats();
        let differs = match &reference_answers {
            None => {
                reference_answers = Some(answers);
                0
            }
            Some(reference) => reference
                .iter()
                .zip(&answers)
                .filter(|(a, b)| a != b)
                .count(),
        };
        table.add_row(vec![
            label,
            fmt_f64(stats.mean_runs_per_query()),
            fmt_f64(stats.total_cubes_enumerated as f64 / stats.queries as f64),
            stats.fallback_queries.to_string(),
            detected.to_string(),
            differs.to_string(),
        ]);
    }
    vec![table]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn caps_bound_work_without_losing_detections() {
        let tables = run(RunScale {
            subscriptions: 1_200,
            queries: 50,
            brokers: 0,
            events: 0,
        });
        let csv = tables[0].to_csv();
        let rows: Vec<Vec<String>> = csv
            .lines()
            .skip(1)
            .map(|l| l.split(',').map(|s| s.to_string()).collect())
            .collect();
        assert_eq!(rows.len(), 6);
        let eager_rows = &rows[..5];
        let detected: Vec<f64> = eager_rows.iter().map(|r| r[4].parse().unwrap()).collect();
        // Tighter caps may only ever *increase* detections (the fallback
        // searches the whole region), never lose them.
        for w in detected.windows(2) {
            assert!(w[1] >= w[0] - 1e-9);
        }
        // Cube enumeration per query shrinks as the cap tightens.
        let cubes: Vec<f64> = eager_rows.iter().map(|r| r[2].parse().unwrap()).collect();
        assert!(cubes.last().unwrap() <= cubes.first().unwrap());
        // The skip engine never falls back, does far less decomposition work
        // than any eager budget, and detects at least as much as the eager
        // runs (its sweep is exact).
        let skip = rows.last().unwrap();
        let skip_runs: f64 = skip[1].parse().unwrap();
        let eager_runs: f64 = eager_rows[0][1].parse().unwrap();
        assert!(skip[3] == "0", "skip engine fell back: {skip:?}");
        assert!(skip_runs * 10.0 <= eager_runs);
        let skip_detected: f64 = skip[4].parse().unwrap();
        assert!(skip_detected >= detected[0]);
    }
}
