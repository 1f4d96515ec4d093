//! E13 — churn at system level: suppression and retraction traffic vs the
//! churn rate, and online shard rebalancing under a drifting hot region.
//!
//! This experiment promotes the churn scenario from an end-to-end test into
//! the harness, with two tables:
//!
//! 1. **Suppression vs churn rate** — the broker overlay driven by the
//!    mixed subscribe/unsubscribe/publish stream at increasing unsubscribe
//!    weights, per covering policy: how much subscription traffic covering
//!    still suppresses once subscriptions churn, what the retraction
//!    (unsubscription) traffic costs, and that the per-link suppressed
//!    state stays bounded by the live population.
//! 2. **Rebalancing under drift** — the skewed-drift workload against a
//!    4-shard index with frozen boundaries vs one with the auto-rebalance
//!    policy armed: update throughput and final imbalance once the hot
//!    region has moved.

use std::collections::{HashMap, VecDeque};
use std::time::Instant;

use acd_broker::{BrokerConfig, Topology};
use acd_covering::{ApproxConfig, CoveringPolicy, RebalancePolicy, ShardedCoveringIndex};
use acd_sfc::CurveKind;
use acd_subscription::SubId;
use acd_workload::{ChurnConfig, ChurnOp, ChurnWorkload, Scenario, SubscriptionWorkload};

use crate::table::{fmt_f64, Table};
use crate::RunScale;

/// The shared setup behind every skewed-drift measurement — the rebalance
/// table below and the `drift_updates` Criterion group drive this exact
/// protocol, so a change to the policy constants or the drift convention
/// cannot silently diverge between the bench and the experiment.
///
/// Construction bulk-builds a quantile-balanced 4-shard index over the
/// [`Scenario::SkewedDrift`] workload, optionally arms the standard
/// auto-rebalance policy (imbalance 1.5, min 256, checked every 256
/// updates), jumps the generator's hot region half a domain, and replaces
/// the whole population once — so by the time the caller starts timing
/// [`paired_update`](DriftHarness::paired_update) calls, a frozen layout is
/// already fully concentrated.
#[derive(Debug)]
pub struct DriftHarness {
    workload: SubscriptionWorkload,
    /// The drifted 4-shard index under measurement.
    pub index: ShardedCoveringIndex,
    retire: VecDeque<SubId>,
}

/// Where a [`DriftHarness`] run left its index.
#[derive(Debug, Clone, PartialEq)]
pub struct DriftCost {
    /// Imbalance factor at the end of the run (1.0 = perfectly balanced,
    /// 4.0 = everything in one of the 4 shards).
    pub final_imbalance: f64,
    /// Rebalance passes performed.
    pub rebalances: u64,
    /// Subscriptions moved between shards by those passes.
    pub subscriptions_migrated: u64,
}

impl DriftHarness {
    /// Builds the harness (see the type docs for the protocol).
    pub fn new(subscriptions: usize, rebalance: bool, seed: u64) -> Self {
        let config = Scenario::SkewedDrift.workload_config(seed);
        let mut workload = SubscriptionWorkload::new(&config).unwrap();
        let schema = workload.schema().clone();
        let population = workload.take(subscriptions);
        let index = ShardedCoveringIndex::build_from(
            &schema,
            ApproxConfig::exhaustive(),
            CurveKind::Z,
            4,
            &population,
        )
        .expect("drift index build");
        if rebalance {
            index
                .set_rebalance_policy(Some(RebalancePolicy {
                    max_imbalance: 1.5,
                    min_len: 256,
                    check_interval: 256,
                }))
                .expect("valid drift policy");
        }
        workload.set_center_offset(0.5);
        let mut harness = DriftHarness {
            workload,
            index,
            retire: population.iter().map(|s| s.id()).collect(),
        };
        for _ in 0..subscriptions {
            harness.paired_update();
        }
        harness
    }

    /// One churn step: insert a fresh (drifted) subscription and remove the
    /// oldest live one, keeping the population size constant.
    pub fn paired_update(&mut self) {
        let sub = self.workload.next_subscription();
        self.retire.push_back(sub.id());
        self.index.insert(&sub).expect("drift insert");
        let old = self.retire.pop_front().expect("non-empty");
        self.index.remove(old).expect("drift remove");
    }

    /// The index's end state.
    pub fn cost(&self) -> DriftCost {
        let stats = ShardedCoveringIndex::stats(&self.index);
        DriftCost {
            final_imbalance: self.index.imbalance(),
            rebalances: stats.rebalances,
            subscriptions_migrated: stats.subscriptions_migrated,
        }
    }
}

/// Runs the experiment.
pub fn run(scale: RunScale) -> Vec<Table> {
    vec![
        suppression_vs_churn_rate(scale),
        rebalance_under_drift(scale),
    ]
}

/// Table 1: overlay traffic per (churn mix, covering policy).
fn suppression_vs_churn_rate(scale: RunScale) -> Table {
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
        CoveringPolicy::ShardedSfc { shards: 4 },
    ];

    let mut table = Table::new(
        format!("E13a — suppression and retraction traffic vs churn rate ({brokers} brokers, {ops} ops, churn workload)"),
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
                .map(|b| net.broker(b).unwrap().suppressed_entries())
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
    table
}

/// Table 2: frozen vs auto-rebalanced 4-shard index under the skewed-drift
/// churn stream.
fn rebalance_under_drift(scale: RunScale) -> Table {
    let n = scale.subscriptions.clamp(600, 6_000);
    let mut table = Table::new(
        format!("E13b — online rebalancing under a drifting hot region (4 shards, n = {n}, skewed-drift workload)"),
        &[
            "variant",
            "updates",
            "time (ms)",
            "updates/s",
            "final imbalance",
            "rebalances",
            "moved",
        ],
    );
    for (label, rebalance) in [("frozen boundaries", false), ("auto-rebalance", true)] {
        // DriftHarness replaces the population once untimed, so the frozen
        // variant measures its fully concentrated steady state.
        let mut harness = DriftHarness::new(n, rebalance, 77);
        let start = Instant::now();
        let mut updates = 0u64;
        for _ in 0..2 * n {
            harness.paired_update();
            updates += 2;
        }
        let elapsed = start.elapsed().as_secs_f64();
        let cost = harness.cost();
        table.add_row(vec![
            label.to_string(),
            updates.to_string(),
            fmt_f64(elapsed * 1e3),
            fmt_f64(updates as f64 / elapsed.max(1e-9)),
            fmt_f64(cost.final_imbalance),
            cost.rebalances.to_string(),
            cost.subscriptions_migrated.to_string(),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fixed number of paired updates, so the same seed gives the same
    /// numbers on any machine and the bound needs no headroom.
    #[test]
    fn auto_rebalance_fires_under_drift_and_ends_balanced() {
        let run = |rebalance| {
            let mut harness = DriftHarness::new(600, rebalance, 909);
            for _ in 0..1_200 {
                harness.paired_update();
            }
            harness.cost()
        };
        let frozen = run(false);
        let rebalanced = run(true);
        assert_eq!(frozen.rebalances, 0);
        assert!(rebalanced.rebalances > 0, "{rebalanced:?}");
        assert!(rebalanced.subscriptions_migrated > 0, "{rebalanced:?}");
        assert!(rebalanced.final_imbalance <= 2.0, "{rebalanced:?}");
        assert!(
            rebalanced.final_imbalance < frozen.final_imbalance,
            "{rebalanced:?} vs {frozen:?}"
        );
    }
}
