//! Threaded stress test for the concurrent `BrokerNetwork`: many threads
//! drive subscribe/unsubscribe/publish through `&self` on one shared
//! network. Each thread owns a disjoint slice of the first attribute's
//! domain, so its deliveries are exactly predictable by a thread-local
//! oracle no matter how the threads interleave — which turns the stress
//! test into an exact correctness check, not just a crash hunt.
//!
//! Disjoint slices mean no thread's subscription ever covers another's, so
//! no thread retracts a witness another thread's subscription is held back
//! behind. The `overlapping_*` tests are the variant where they do: every
//! thread draws from one shared region, in rounds, and the checks run on
//! the quiescent overlay between rounds.
//!
//! Run in CI's stress job (release, single-threaded test harness so the
//! worker threads get the machine).

use std::sync::{Arc, Barrier};

use acd_broker::{BrokerConfig, BrokerNetwork, Topology};
use acd_covering::CoveringPolicy;
use acd_subscription::{Event, Schema, SubId, Subscription, SubscriptionBuilder};

mod support;
use support::Rng;

const THREADS: usize = 8;
const OPS_PER_THREAD: usize = 300;
const DOMAIN: f64 = 1000.0;

fn schema() -> Schema {
    Schema::builder()
        .attribute("x", 0.0, DOMAIN)
        .attribute("y", 0.0, DOMAIN)
        .bits_per_attribute(8)
        .build()
        .unwrap()
}

/// One thread's workload: churn inside its own x-slice, checking every
/// publish against a local oracle of its own live subscriptions.
fn drive(net: &BrokerNetwork, thread: usize, seed: u64) {
    let schema = net.schema().clone();
    let brokers = net.topology().brokers();
    let mut rng = Rng(seed);
    // Disjoint slice, with a margin so grid quantization cannot blur two
    // neighboring slices into a shared cell.
    let width = DOMAIN / THREADS as f64;
    let (slice_lo, slice_hi) = (
        thread as f64 * width + width * 0.05,
        (thread + 1) as f64 * width - width * 0.05,
    );
    let mut live: Vec<(usize, Subscription)> = Vec::new();
    let mut next_id = (thread as u64) * 1_000_000;

    for step in 0..OPS_PER_THREAD {
        match rng.below(10) {
            // 0-3: subscribe inside the slice.
            0..=3 => {
                let lo = slice_lo + rng.unit() * (slice_hi - slice_lo) * 0.8;
                let hi = lo + rng.unit() * (slice_hi - lo);
                let y_lo = rng.unit() * DOMAIN * 0.8;
                let y_hi = y_lo + rng.unit() * (DOMAIN - y_lo);
                next_id += 1;
                let sub = SubscriptionBuilder::new(&schema)
                    .range("x", lo, hi)
                    .range("y", y_lo, y_hi)
                    .build(next_id)
                    .unwrap();
                let home = (next_id % brokers as u64) as usize;
                net.subscribe(home, next_id, &sub).unwrap();
                live.push((home, sub));
            }
            // 4-5: unsubscribe one of ours.
            4 | 5 => {
                if !live.is_empty() {
                    let victim = rng.below(live.len() as u64) as usize;
                    let (home, sub) = live.swap_remove(victim);
                    net.unsubscribe(home, sub.id()).unwrap();
                }
            }
            // 6-9: publish inside the slice and check the oracle exactly.
            _ => {
                let x = slice_lo + rng.unit() * (slice_hi - slice_lo);
                let y = rng.unit() * DOMAIN;
                let event = Event::new(&schema, vec![x, y]).unwrap();
                let at = step % brokers;
                let deliveries = net.publish(at, &event).unwrap();
                let mine: Vec<(usize, u64)> = deliveries
                    .iter()
                    .copied()
                    .filter(|(_, client)| client / 1_000_000 == thread as u64)
                    .collect();
                let mut expected: Vec<(usize, u64)> = live
                    .iter()
                    .filter(|(_, sub)| sub.matches(&event))
                    .map(|(home, sub)| (*home, sub.id()))
                    .collect();
                expected.sort_unstable();
                assert_eq!(
                    mine, expected,
                    "thread {thread} step {step}: deliveries diverged from the oracle"
                );
                // Foreign deliveries would mean slice isolation broke.
                assert_eq!(
                    mine.len(),
                    deliveries.len(),
                    "thread {thread} step {step}: received another slice's deliveries"
                );
            }
        }
    }

    // Drain, so the network ends the test empty.
    for (home, sub) in live {
        net.unsubscribe(home, sub.id()).unwrap();
    }
}

fn stress(policy: CoveringPolicy) {
    let schema = schema();
    let net = Arc::new(
        BrokerConfig::new(Topology::random_tree(10, 7).unwrap(), &schema)
            .policy(policy)
            .build()
            .unwrap(),
    );
    std::thread::scope(|scope| {
        for thread in 0..THREADS {
            let net = Arc::clone(&net);
            scope.spawn(move || drive(&net, thread, 0xACD0 + thread as u64));
        }
    });
    // Registry empty and audit clean: no record is left anywhere.
    let metrics = net.metrics();
    assert_eq!(metrics.subscriptions_registered, metrics.unsubscriptions);
    assert_eq!(net.audit(), []);
}

#[test]
fn network_is_send_and_sync() {
    fn assert_traits<T: Send + Sync>() {}
    assert_traits::<BrokerNetwork>();
    assert_traits::<Arc<BrokerNetwork>>();
}

#[test]
fn concurrent_churn_matches_the_oracle_flooding() {
    stress(CoveringPolicy::None);
}

#[test]
fn concurrent_churn_matches_the_oracle_exact_sfc() {
    stress(CoveringPolicy::ExactSfc);
}

#[test]
fn concurrent_churn_matches_the_oracle_approximate() {
    stress(CoveringPolicy::Approximate { epsilon: 0.05 });
}

/// Grid side of the overlapping variant's schema. Every bound and event
/// value is an integer below it, one grid cell each, so grid covering is
/// raw covering and the oracle is exact (no cell-boundary slack).
const CELLS: u64 = 256;
const ROUNDS: usize = 40;
const OPS_PER_ROUND: usize = 12;

/// One thread's live subscriptions in the overlapping variant, with their
/// home brokers.
type Owned = Vec<(usize, Subscription)>;

/// One thread's share of one round: subscribes drawn from the whole shared
/// region — one in four wide enough to cover most of what any thread
/// holds — and unsubscribes of its own, so witnesses and the subscriptions
/// behind them belong to different threads.
fn overlap_round(net: &BrokerNetwork, rng: &mut Rng, next_id: &mut SubId, own: &mut Owned) {
    let brokers = net.topology().brokers() as u64;
    for _ in 0..OPS_PER_ROUND {
        if rng.below(5) < 3 {
            let mut range = || {
                let (lo, len) = match rng.below(4) {
                    0 => (rng.below(32), CELLS / 2 + rng.below(CELLS / 2)),
                    _ => (rng.below(CELLS), rng.below(48)),
                };
                (lo as f64, (lo + len).min(CELLS - 1) as f64)
            };
            *next_id += 1;
            let bounds = [range(), range()];
            let sub = Subscription::from_raw_bounds(net.schema(), *next_id, &bounds).unwrap();
            let home = (*next_id % brokers) as usize;
            net.subscribe(home, *next_id, &sub).unwrap();
            own.push((home, sub));
        } else if !own.is_empty() {
            let victim = rng.below(own.len() as u64) as usize;
            let (home, sub) = own.swap_remove(victim);
            net.unsubscribe(home, sub.id()).unwrap();
        }
    }
}

/// The checks on the quiescent overlay: every event is delivered to exactly
/// the clients the union of the threads' live sets says, and the audit finds
/// nothing.
fn check_quiescent(net: &BrokerNetwork, rng: &mut Rng, owned: &[Owned]) {
    let all_live = || owned.iter().flatten();
    for probe in 0..16 {
        let values = vec![rng.below(CELLS) as f64, rng.below(CELLS) as f64];
        let event = Event::new(net.schema(), values).unwrap();
        let mut expected: Vec<(usize, u64)> = all_live()
            .filter(|(_, sub)| sub.matches(&event))
            .map(|(home, sub)| (*home, sub.id()))
            .collect();
        expected.sort_unstable();
        let at = probe % net.topology().brokers();
        assert_eq!(net.publish(at, &event).unwrap(), expected, "{event}");
    }
    assert_eq!(net.audit(), []);
}

fn overlapping_stress(policy: CoveringPolicy) {
    let schema = Schema::builder()
        .attribute("x", 0.0, CELLS as f64)
        .attribute("y", 0.0, CELLS as f64)
        .bits_per_attribute(CELLS.ilog2())
        .build()
        .unwrap();
    let net = BrokerConfig::new(Topology::random_tree(10, 7).unwrap(), &schema)
        .policy(policy)
        .build()
        .unwrap();
    let mut owned: Vec<Owned> = (0..THREADS).map(|_| Owned::new()).collect();
    let mut rngs: Vec<Rng> = (0..THREADS).map(|t| Rng(0x0AC0 + t as u64)).collect();
    let mut next_ids: Vec<SubId> = (0..THREADS).map(|t| t as u64 * 1_000_000).collect();
    let mut probe_rng = Rng(0xACD1);
    for _ in 0..ROUNDS {
        // The scope's join is the quiescent point; the barrier makes the
        // threads' rounds start together, so they overlap.
        let start = Barrier::new(THREADS);
        std::thread::scope(|scope| {
            for ((rng, next_id), own) in rngs.iter_mut().zip(&mut next_ids).zip(&mut owned) {
                let (net, start) = (&net, &start);
                scope.spawn(move || {
                    start.wait();
                    overlap_round(net, rng, next_id, own);
                });
            }
        });
        check_quiescent(&net, &mut probe_rng, &owned);
    }
    // Drained, the registry is empty, so a clean audit means no record is
    // left anywhere.
    for (home, sub) in owned.iter_mut().flat_map(|own| own.drain(..)) {
        net.unsubscribe(home, sub.id()).unwrap();
    }
    check_quiescent(&net, &mut probe_rng, &owned);
}

#[test]
fn overlapping_churn_keeps_deliveries_and_witnesses_exact_sfc() {
    overlapping_stress(CoveringPolicy::ExactSfc);
}

#[test]
fn overlapping_churn_keeps_deliveries_and_witnesses_approximate() {
    overlapping_stress(CoveringPolicy::Approximate { epsilon: 0.05 });
}
