//! Cross-crate integration tests: workload generation → covering indexes →
//! broker overlay, exercised through the facade crate's public API.

use acd::prelude::*;
use acd_workload::{ChurnOp, ChurnWorkload, EventWorkload};

#[test]
fn generated_workload_through_all_indexes() {
    // Generate a reproducible population, index it three ways, and check the
    // answers are mutually consistent.
    let config = WorkloadConfig::builder()
        .attributes(2)
        .bits_per_attribute(9)
        .seed(1234)
        .build()
        .unwrap();
    let mut workload = SubscriptionWorkload::new(&config).unwrap();
    let schema = workload.schema().clone();
    let population = workload.take(500);
    let queries = workload.take(80);

    let mut linear = LinearScanIndex::new(&schema);
    let mut exhaustive = SfcCoveringIndex::exhaustive(&schema).unwrap();
    let mut approximate =
        SfcCoveringIndex::approximate(&schema, ApproxConfig::with_epsilon(0.05).unwrap()).unwrap();
    for s in &population {
        linear.insert(s).unwrap();
        exhaustive.insert(s).unwrap();
        approximate.insert(s).unwrap();
    }
    let mut truly_covered = 0;
    let mut approx_detected = 0;
    for q in &queries {
        let truth = linear.find_covering(q).unwrap();
        let exact = exhaustive.find_covering(q).unwrap();
        let approx = approximate.find_covering(q).unwrap();
        assert_eq!(truth.is_covered(), exact.is_covered());
        if let Some(id) = exact.covering {
            assert!(exhaustive.get(id).unwrap().covers(q));
        }
        if approx.is_covered() {
            assert!(truth.is_covered(), "approximate index false positive");
            approx_detected += 1;
        }
        if truth.is_covered() {
            truly_covered += 1;
        }
    }
    assert!(truly_covered > 0, "workload must contain covering pairs");
    assert!(
        approx_detected as f64 >= truly_covered as f64 * 0.6,
        "approximate index detected only {approx_detected} of {truly_covered}"
    );
}

#[test]
fn broker_overlay_with_scenario_workloads_is_safe_and_saves_traffic() {
    for scenario in Scenario::all() {
        let config = scenario.workload_config(99);
        let mut sub_workload = SubscriptionWorkload::new(&config).unwrap();
        let schema = sub_workload.schema().clone();
        let subscriptions = sub_workload.take(300);
        let mut event_workload = EventWorkload::with_schema(&config, &schema).unwrap();
        let events = event_workload.take(40);
        let topology = Topology::balanced_tree(2, 3).unwrap();

        let run = |policy: CoveringPolicy| {
            let net = BrokerConfig::new(topology.clone(), &schema)
                .policy(policy)
                .build()
                .unwrap();
            for (i, s) in subscriptions.iter().enumerate() {
                net.subscribe(i % topology.brokers(), i as u64, s).unwrap();
            }
            let mut deliveries = Vec::new();
            for (i, e) in events.iter().enumerate() {
                deliveries.push(net.publish((i * 3) % topology.brokers(), e).unwrap());
            }
            (deliveries, net.metrics())
        };

        let (flood_deliveries, flood) = run(CoveringPolicy::None);
        let (approx_deliveries, approx) = run(CoveringPolicy::Approximate { epsilon: 0.05 });
        assert_eq!(
            flood_deliveries, approx_deliveries,
            "scenario {scenario}: covering changed deliveries"
        );
        assert!(
            approx.subscription_messages <= flood.subscription_messages,
            "scenario {scenario}: covering increased subscription traffic"
        );
        assert!(approx.routing_table_entries <= flood.routing_table_entries);
    }
}

#[test]
fn churn_scenario_through_broker_network_matches_naive_oracle() {
    // Run the churn scenario's mixed subscribe/unsubscribe/publish stream
    // through a 3-broker overlay under several covering policies. After
    // every publish, the delivered set must equal the naive oracle's: match
    // the event against every currently-live subscription, no covering, no
    // routing — if retraction or re-advertisement ever corrupted routing
    // state, deliveries would diverge.
    let seed = 20_260_731;
    let brokers = 3usize;
    for policy in [
        CoveringPolicy::None,
        CoveringPolicy::ExactSfc,
        CoveringPolicy::Approximate { epsilon: 0.05 },
    ] {
        let config = Scenario::Churn.churn_config(seed);
        let mut churn = ChurnWorkload::new(&config).unwrap();
        let schema = churn.schema().clone();
        let net = BrokerConfig::new(Topology::line(brokers).unwrap(), &schema)
            .policy(policy)
            .build()
            .unwrap();

        // The oracle: every live subscription with its home broker/client.
        let mut live: std::collections::HashMap<u64, (usize, u64, Subscription)> =
            std::collections::HashMap::new();
        let home = |id: u64| (id as usize % brokers, 1000 + id);

        let mut publishes = 0usize;
        let mut unsubscribes = 0usize;
        for (step, op) in churn.take(420).into_iter().enumerate() {
            match op {
                ChurnOp::Subscribe(sub) => {
                    let (broker, client) = home(sub.id());
                    net.subscribe(broker, client, &sub).unwrap();
                    live.insert(sub.id(), (broker, client, sub));
                }
                ChurnOp::Unsubscribe(id) => {
                    let (broker, _) = home(id);
                    net.unsubscribe(broker, id).unwrap();
                    live.remove(&id);
                    unsubscribes += 1;
                }
                ChurnOp::Publish(event) => {
                    let at = step % brokers;
                    let got = net.publish(at, &event).unwrap();
                    let mut want: Vec<(usize, u64)> = live
                        .values()
                        .filter(|(_, _, s)| s.matches(&event))
                        .map(|&(b, c, _)| (b, c))
                        .collect();
                    want.sort_unstable();
                    want.dedup();
                    assert_eq!(
                        got,
                        want,
                        "policy {} step {step}: deliveries diverged from oracle",
                        policy.label()
                    );
                    publishes += 1;
                }
            }
        }
        assert!(publishes > 20, "stream exercised too few publishes");
        assert!(unsubscribes > 20, "stream exercised too few unsubscribes");
        assert_eq!(net.metrics().unsubscriptions, unsubscribes as u64);
        // Routing state stays bounded by the live population: every entry
        // refers to a live subscription on each of the (at most 2) links it
        // crossed.
        assert!(
            net.metrics().routing_table_entries <= (live.len() * (brokers - 1)) as u64,
            "routing tables leak entries under churn ({} > {})",
            net.metrics().routing_table_entries,
            live.len() * (brokers - 1)
        );
    }
}

#[test]
fn removal_keeps_indexes_consistent_end_to_end() {
    let schema = Schema::builder()
        .attribute("x", 0.0, 100.0)
        .attribute("y", 0.0, 100.0)
        .bits_per_attribute(8)
        .build()
        .unwrap();
    let mut index = SfcCoveringIndex::exhaustive(&schema).unwrap();
    let wide = SubscriptionBuilder::new(&schema)
        .range("x", 0.0, 100.0)
        .range("y", 0.0, 100.0)
        .build(1)
        .unwrap();
    let mid = SubscriptionBuilder::new(&schema)
        .range("x", 10.0, 90.0)
        .range("y", 10.0, 90.0)
        .build(2)
        .unwrap();
    let narrow = SubscriptionBuilder::new(&schema)
        .range("x", 40.0, 60.0)
        .range("y", 40.0, 60.0)
        .build(3)
        .unwrap();
    index.insert(&wide).unwrap();
    index.insert(&mid).unwrap();

    // Covered by both; removing the wide one must still find the mid one,
    // removing both must find nothing.
    assert!(index.find_covering(&narrow).unwrap().is_covered());
    index.remove(1).unwrap();
    let outcome = index.find_covering(&narrow).unwrap();
    assert_eq!(outcome.covering, Some(2));
    index.remove(2).unwrap();
    assert!(!index.find_covering(&narrow).unwrap().is_covered());

    // The emptied index holds exactly what is inserted next.
    index.insert(&narrow).unwrap();
    assert_eq!(index.len(), 1);
    assert!(!index.find_covering(&wide).unwrap().is_covered());
    let inner = narrow.with_id(4);
    assert_eq!(index.find_covering(&inner).unwrap().covering, Some(3));
}

#[test]
fn curves_are_interchangeable_for_correctness() {
    let config = WorkloadConfig::builder()
        .attributes(2)
        .bits_per_attribute(8)
        .seed(555)
        .build()
        .unwrap();
    let mut workload = SubscriptionWorkload::new(&config).unwrap();
    let schema = workload.schema().clone();
    let population = workload.take(200);
    let queries = workload.take(40);

    // Each curve on the engine it runs: skip on Z, eager on Hilbert and Gray.
    let mut indexes: Vec<SfcCoveringIndex> = CurveKind::all()
        .into_iter()
        .map(|kind| {
            let config = ApproxConfig::exhaustive().engine(QueryEngine::for_curve(kind));
            SfcCoveringIndex::with_curve(&schema, config, kind).unwrap()
        })
        .collect();
    for s in &population {
        for idx in indexes.iter_mut() {
            idx.insert(s).unwrap();
        }
    }
    for q in &queries {
        let answers: Vec<bool> = indexes
            .iter_mut()
            .map(|idx| idx.find_covering(q).unwrap().is_covered())
            .collect();
        assert!(
            answers.windows(2).all(|w| w[0] == w[1]),
            "curves disagree on query {}",
            q.id()
        );
    }
}
