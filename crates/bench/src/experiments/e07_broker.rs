//! E7 — end-to-end broker-overlay benefit of covering, per policy.
//!
//! The paper motivates covering detection with its system-level effect:
//! fewer subscriptions propagated and smaller routing tables, without
//! changing what subscribers receive. This experiment runs the same
//! subscription/event trace through the broker overlay under four policies
//! (flooding, exact linear covering, exact SFC covering, approximate SFC
//! covering) and reports propagation traffic, routing state, covering cost
//! and delivery counts.

use std::time::Instant;

use acd_broker::{BrokerConfig, Topology};
use acd_covering::CoveringPolicy;
use acd_workload::{EventWorkload, Scenario, SubscriptionWorkload};

use crate::table::{fmt_f64, Table};
use crate::RunScale;

/// Runs the experiment.
pub fn run(scale: RunScale) -> Vec<Table> {
    let scenario = Scenario::StockTicker;
    let config = scenario.workload_config(7);
    let mut sub_workload = SubscriptionWorkload::new(&config).unwrap();
    let schema = sub_workload.schema().clone();
    let subscriptions = sub_workload.take(scale.subscriptions.min(5_000));
    let mut event_workload = EventWorkload::with_schema(&config, &schema).unwrap();
    let events = event_workload.take(scale.events);

    let topology = Topology::random_tree(scale.brokers, 5).unwrap();

    let policies = [
        CoveringPolicy::None,
        CoveringPolicy::ExactLinear,
        CoveringPolicy::ExactSfc,
        CoveringPolicy::Approximate { epsilon: 0.05 },
    ];

    let mut table = Table::new(
        format!(
            "E7 — broker overlay ({} brokers, {} subscriptions, {} events, stock-ticker workload)",
            topology.brokers(),
            subscriptions.len(),
            events.len()
        ),
        &[
            "policy",
            "sub msgs",
            "suppressed",
            "routing entries",
            "covering queries",
            "propagation time (ms)",
            "event msgs",
            "deliveries",
        ],
    );

    let mut reference_deliveries: Option<u64> = None;
    for policy in policies {
        let net = BrokerConfig::new(topology.clone(), &schema)
            .policy(policy)
            .build()
            .unwrap();
        let start = Instant::now();
        for (i, s) in subscriptions.iter().enumerate() {
            let at = (i * 7) % topology.brokers();
            net.subscribe(at, 1_000 + i as u64, s).unwrap();
        }
        let propagation_time = start.elapsed();
        for (i, e) in events.iter().enumerate() {
            let at = (i * 13) % topology.brokers();
            net.publish(at, e).unwrap();
        }
        let metrics = net.metrics();
        // Covering never changes deliveries: check against the flooding run.
        match reference_deliveries {
            None => reference_deliveries = Some(metrics.deliveries),
            Some(expected) => assert_eq!(
                metrics.deliveries, expected,
                "covering policy {policy:?} changed deliveries"
            ),
        }
        table.add_row(vec![
            policy.label(),
            metrics.subscription_messages.to_string(),
            metrics.subscriptions_suppressed.to_string(),
            metrics.routing_table_entries.to_string(),
            metrics.covering_queries.to_string(),
            fmt_f64(propagation_time.as_secs_f64() * 1e3),
            metrics.event_messages.to_string(),
            metrics.deliveries.to_string(),
        ]);
    }
    vec![table]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covering_policies_reduce_traffic_without_changing_deliveries() {
        let tables = run(RunScale {
            subscriptions: 400,
            queries: 0,
            brokers: 15,
            events: 30,
        });
        assert_eq!(tables.len(), 1);
        let csv = tables[0].to_csv();
        let rows: Vec<Vec<String>> = csv
            .lines()
            .skip(1)
            .map(|l| l.split(',').map(|s| s.to_string()).collect())
            .collect();
        assert_eq!(rows.len(), 4);
        let msgs: Vec<f64> = rows.iter().map(|r| r[1].parse().unwrap()).collect();
        let entries: Vec<f64> = rows.iter().map(|r| r[3].parse().unwrap()).collect();
        let deliveries: Vec<String> = rows.iter().map(|r| r[7].clone()).collect();
        // All policies deliver identically (also asserted inside run()).
        assert!(deliveries.windows(2).all(|w| w[0] == w[1]));
        // Exact covering (rows 1 and 2) sends fewer subscription messages and
        // keeps smaller routing tables than flooding (row 0).
        assert!(msgs[1] < msgs[0]);
        assert!(msgs[2] < msgs[0]);
        assert!(entries[1] < entries[0]);
        // Approximate covering (row 3) is between flooding and exact.
        assert!(msgs[3] <= msgs[0]);
        assert!(msgs[3] >= msgs[2]);
    }
}
