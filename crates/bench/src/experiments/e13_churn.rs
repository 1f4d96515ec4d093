//! E13 — churn at system level: suppression and retraction traffic vs the
//! churn rate.
//!
//! This experiment promotes the churn scenario from an end-to-end test into
//! the harness: the broker overlay driven by the mixed
//! subscribe/unsubscribe/publish stream at increasing unsubscribe weights,
//! per covering policy — how much subscription traffic covering still
//! suppresses once subscriptions churn, what the retraction
//! (unsubscription) traffic costs, and that the per-link suppressed state
//! stays bounded by the live population.

use std::collections::HashMap;

use acd_broker::{Broker, BrokerConfig, Topology};
use acd_covering::CoveringPolicy;
use acd_workload::{ChurnConfig, ChurnOp, ChurnWorkload, Scenario};

use crate::table::{fmt_f64, Table};
use crate::RunScale;

/// Runs the experiment: overlay traffic per (churn mix, covering policy).
pub fn run(scale: RunScale) -> Vec<Table> {
    // A 15-broker balanced binary tree regardless of scale: churn traffic
    // shape is what the table shows; ops scale with the run.
    let brokers = 15usize;
    let ops = (scale.events * 20).clamp(400, 10_000);
    let mixes: [(&str, u32, u32, u32); 3] = [
        ("low (10% unsub)", 60, 10, 30),
        ("balanced (35% unsub)", 45, 35, 20),
        ("high (55% unsub)", 30, 55, 15),
    ];
    let policies = [
        CoveringPolicy::None,
        CoveringPolicy::ExactSfc,
        CoveringPolicy::Approximate { epsilon: 0.05 },
    ];

    let mut table = Table::new(
        format!("E13 — suppression and retraction traffic vs churn rate ({brokers} brokers, {ops} ops, churn workload)"),
        &[
            "churn mix",
            "policy",
            "sub msgs",
            "suppressed",
            "suppression ratio",
            "unsub msgs",
            "suppressed entries",
            "deliveries",
        ],
    );

    for (label, sub_w, unsub_w, pub_w) in mixes {
        for policy in policies {
            let mut config = ChurnConfig::balanced(Scenario::Churn.workload_config(31));
            config.subscribe_weight = sub_w;
            config.unsubscribe_weight = unsub_w;
            config.publish_weight = pub_w;
            let mut churn = ChurnWorkload::new(&config).unwrap();
            let schema = churn.schema().clone();
            let topology = Topology::balanced_tree(2, 4).unwrap();
            let brokers = topology.brokers();
            let net = BrokerConfig::new(topology, &schema)
                .policy(policy)
                .build()
                .unwrap();
            let mut homes: HashMap<u64, usize> = HashMap::new();
            let mut deliveries = 0u64;
            for (i, op) in churn.take(ops).into_iter().enumerate() {
                let at = i % brokers;
                match op {
                    ChurnOp::Subscribe(sub) => {
                        homes.insert(sub.id(), at);
                        net.subscribe(at, i as u64, &sub).unwrap();
                    }
                    ChurnOp::Unsubscribe(id) => {
                        let home = homes.remove(&id).expect("registered earlier");
                        net.unsubscribe(home, id).unwrap();
                    }
                    ChurnOp::Publish(event) => {
                        deliveries += net.publish(at, &event).unwrap().len() as u64;
                    }
                }
            }
            let metrics = net.metrics();
            let offered = metrics.subscription_messages + metrics.subscriptions_suppressed;
            let ratio = if offered == 0 {
                0.0
            } else {
                metrics.subscriptions_suppressed as f64 / offered as f64
            };
            let suppressed_entries: usize = (0..brokers)
                .map(|b| net.inspect(b, Broker::suppressed_entries).unwrap())
                .sum();
            table.add_row(vec![
                label.to_string(),
                policy.label(),
                metrics.subscription_messages.to_string(),
                metrics.subscriptions_suppressed.to_string(),
                fmt_f64(ratio),
                metrics.unsubscription_messages.to_string(),
                suppressed_entries.to_string(),
                deliveries.to_string(),
            ]);
        }
    }
    vec![table]
}
