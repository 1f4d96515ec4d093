//! A churn-heavy broker deployment: the `Scenario::Churn` mixed stream of
//! subscribes, unsubscribes and publishes runs through a broker overlay
//! whose links detect covering exactly and then ε-approximately, and the
//! covering-off baseline runs alongside for comparison.
//!
//! ```text
//! cargo run --example churn_network --release
//! ```

use acd::prelude::*;
use acd_workload::{ChurnOp, ChurnWorkload};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let ops = 3_000usize;
    let config = Scenario::Churn.churn_config(42);
    println!(
        "churn mix: subscribe {}, unsubscribe {}, publish {} (warmup {})",
        config.subscribe_weight,
        config.unsubscribe_weight,
        config.publish_weight,
        config.warmup_subscriptions
    );

    for policy in [
        CoveringPolicy::None,
        CoveringPolicy::ExactSfc,
        CoveringPolicy::Approximate { epsilon: 0.05 },
    ] {
        let mut churn = ChurnWorkload::new(&config)?;
        let schema = churn.schema().clone();
        let topology = Topology::balanced_tree(2, 3)?;
        let brokers = topology.brokers();
        let net = BrokerConfig::new(topology, &schema)
            .policy(policy)
            .build()?;

        let mut deliveries = 0u64;
        for (step, op) in churn.take(ops).into_iter().enumerate() {
            match op {
                ChurnOp::Subscribe(sub) => {
                    let broker = sub.id() as usize % brokers;
                    net.subscribe(broker, 1000 + sub.id(), &sub)?;
                }
                ChurnOp::Unsubscribe(id) => {
                    net.unsubscribe(id as usize % brokers, id)?;
                }
                ChurnOp::Publish(event) => {
                    deliveries += net.publish(step % brokers, &event)?.len() as u64;
                }
            }
        }
        let m = net.metrics();
        println!(
            "{:24} sub-msgs {:>6}  suppressed {:>6}  unsub-msgs {:>6}  \
             routing entries {:>5}  deliveries {deliveries:>6}",
            policy.label(),
            m.subscription_messages,
            m.subscriptions_suppressed,
            m.unsubscription_messages,
            m.routing_table_entries,
        );
    }
    println!(
        "\nDeliveries are identical under every policy; covering policies cut\n\
         subscription traffic and routing state, and unsubscription retracts\n\
         covers while re-advertising whatever they were masking."
    );
    Ok(())
}
