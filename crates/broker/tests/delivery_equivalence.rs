//! Randomized (but deterministic) end-to-end safety test: whatever covering
//! policy the brokers use, every subscriber receives exactly the same events
//! as under flooding.

use acd_broker::{BrokerConfig, Topology};
use acd_covering::CoveringPolicy;
use acd_workload::{
    CenterDistribution, EventWorkload, Scenario, SubscriptionWorkload, WidthModel, WorkloadConfig,
};

fn run_policy(
    policy: CoveringPolicy,
    topology: &Topology,
    config: &WorkloadConfig,
    subs: usize,
    events: usize,
) -> (Vec<Vec<(usize, u64)>>, acd_broker::NetworkMetrics) {
    let mut sub_workload = SubscriptionWorkload::new(config).unwrap();
    let schema = sub_workload.schema().clone();
    let subscriptions = sub_workload.take(subs);
    let mut event_workload = EventWorkload::with_schema(config, &schema).unwrap();
    let published = event_workload.take(events);

    let net = BrokerConfig::new(topology.clone(), &schema)
        .policy(policy)
        .build()
        .unwrap();
    for (i, s) in subscriptions.iter().enumerate() {
        net.subscribe((i * 3) % topology.brokers(), i as u64, s)
            .unwrap();
    }
    let mut deliveries = Vec::new();
    for (i, e) in published.iter().enumerate() {
        deliveries.push(net.publish((i * 7) % topology.brokers(), e).unwrap());
    }
    (deliveries, net.metrics())
}

#[test]
fn all_policies_deliver_identically_on_all_topologies() {
    let topologies = [
        Topology::line(6).unwrap(),
        Topology::star(8).unwrap(),
        Topology::balanced_tree(2, 3).unwrap(),
        Topology::random_tree(12, 3).unwrap(),
    ];
    let policies = [
        CoveringPolicy::None,
        CoveringPolicy::ExactLinear,
        CoveringPolicy::ExactSfc,
        CoveringPolicy::Approximate { epsilon: 0.1 },
    ];
    for (t_index, topology) in topologies.iter().enumerate() {
        let config = Scenario::UniformBaseline.workload_config(100 + t_index as u64);
        let (reference, flood_metrics) = run_policy(policies[0], topology, &config, 200, 40);
        for &policy in &policies[1..] {
            let (deliveries, metrics) = run_policy(policy, topology, &config, 200, 40);
            assert_eq!(
                deliveries, reference,
                "policy {policy:?} changed deliveries on topology {t_index}"
            );
            assert!(
                metrics.subscription_messages <= flood_metrics.subscription_messages,
                "covering must never increase subscription traffic"
            );
            assert!(metrics.routing_table_entries <= flood_metrics.routing_table_entries);
        }
    }
}

#[test]
fn exact_covering_suppresses_more_than_approximate_never_more_than_flooding() {
    let topology = Topology::balanced_tree(2, 3).unwrap();
    let config = Scenario::UniformBaseline.workload_config(7);
    let (_, flood) = run_policy(CoveringPolicy::None, &topology, &config, 600, 10);
    let (_, exact) = run_policy(CoveringPolicy::ExactSfc, &topology, &config, 600, 10);
    let (_, approx) = run_policy(
        CoveringPolicy::Approximate { epsilon: 0.2 },
        &topology,
        &config,
        600,
        10,
    );
    assert!(exact.subscription_messages <= approx.subscription_messages);
    assert!(approx.subscription_messages <= flood.subscription_messages);
    assert!(exact.subscriptions_suppressed >= approx.subscriptions_suppressed);
    assert_eq!(flood.subscriptions_suppressed, 0);
    // Covering work only happens under covering policies.
    assert_eq!(flood.covering_queries, 0);
    assert!(exact.covering_queries > 0);
}

#[test]
fn covering_over_128_bit_keys_delivers_like_flooding() {
    // 7 attributes × 10 bits give 140-bit dominance keys, the shape of
    // `acd-brokerd --attributes 7`: every SFC covering query sweeps over
    // `Key`s with the word-wise orthant seek. Skewed centers anchor most
    // ranges at the domain's low end, which keeps covers and matches common
    // in 7 dimensions.
    let config = WorkloadConfig::builder()
        .attributes(7)
        .bits_per_attribute(10)
        .center_distribution(CenterDistribution::Zipf { exponent: 2.0 })
        .width_model(WidthModel::UniformFraction { min: 0.3, max: 0.9 })
        .seed(31)
        .build()
        .unwrap();
    let topology = Topology::balanced_tree(2, 3).unwrap();
    let (reference, flood) = run_policy(CoveringPolicy::None, &topology, &config, 200, 40);
    assert!(reference.iter().any(|d| !d.is_empty()), "no event matched");
    for policy in [
        CoveringPolicy::ExactSfc,
        CoveringPolicy::Approximate { epsilon: 0.1 },
    ] {
        let (deliveries, metrics) = run_policy(policy, &topology, &config, 200, 40);
        assert_eq!(
            deliveries, reference,
            "policy {policy:?} changed deliveries"
        );
        assert!(
            metrics.subscriptions_suppressed > 0,
            "{policy:?} found no cover"
        );
        assert!(metrics.subscription_messages <= flood.subscription_messages);
    }
}
