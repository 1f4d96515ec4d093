//! End-to-end integration test: start the real `acd-brokerd` binary on a
//! loopback ephemeral port, drive a churn mix from several concurrent
//! client connections, and assert that the delivered event sets exactly
//! equal an in-process oracle's.
//!
//! Each connection owns a disjoint slice of `attr0`'s domain and unique
//! subscription/client id spaces, so its deliveries are exactly
//! predictable from its own live set regardless of how the daemon's
//! worker team interleaves the connections.
//!
//! The overlapping case drops the slices: the connections subscribe over
//! the whole domain, so one connection's subscriptions cover another's in
//! the overlay, and deliveries are checked between rounds against the union
//! of every connection's live set.

use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Barrier;
use std::time::Duration;

use acd_broker::{BrokerClient, ServiceError};
use acd_subscription::{Event, Schema, SubId, Subscription, SubscriptionBuilder};

mod support;
use support::{DaemonGuard, Flags, Rng, DOMAIN};

const CONNECTIONS: usize = 4;
const OPS_PER_CONNECTION: usize = 200;
const BROKERS: usize = 8;

/// A random overlay under `policy`, served by one worker per connection.
fn start(policy: &str) -> DaemonGuard {
    let flags = Flags {
        topology: "random",
        brokers: BROKERS,
        policy,
        workers: CONNECTIONS,
    };
    DaemonGuard::start(flags, &[])
}

/// Drives one connection's churn mix, asserting oracle-exact deliveries
/// after every publish. Returns the number of publishes checked.
fn drive(addr: &str, index: usize) -> Result<usize, ServiceError> {
    let mut client = BrokerClient::connect(addr)?;
    let schema: Schema = client.schema().clone();
    assert_eq!(
        schema.arity(),
        2,
        "daemon serves the 2-attribute workload schema"
    );

    let mut rng = Rng(0xE2E0 + index as u64);
    let width = DOMAIN / CONNECTIONS as f64;
    // Margins keep neighboring slices out of each other's grid cells.
    let (slice_lo, slice_hi) = (
        index as f64 * width + width * 0.05,
        (index + 1) as f64 * width - width * 0.05,
    );
    let mut live: Vec<(usize, Subscription)> = Vec::new();
    let mut next_id = (index as u64) * 1_000_000;
    let mut publishes = 0usize;

    for step in 0..OPS_PER_CONNECTION {
        match rng.below(10) {
            0..=3 => {
                let lo = slice_lo + rng.unit() * (slice_hi - slice_lo) * 0.8;
                let hi = lo + rng.unit() * (slice_hi - lo);
                let y_lo = rng.unit() * DOMAIN * 0.8;
                let y_hi = y_lo + rng.unit() * (DOMAIN - y_lo);
                next_id += 1;
                let sub = SubscriptionBuilder::new(&schema)
                    .range("attr0", lo, hi)
                    .range("attr1", y_lo, y_hi)
                    .build(next_id)
                    .map_err(|e| ServiceError::Io(e.to_string()))?;
                let home = (next_id % BROKERS as u64) as usize;
                client.subscribe(home, next_id, &sub)?;
                live.push((home, sub));
            }
            4 | 5 => {
                if !live.is_empty() {
                    let victim = rng.below(live.len() as u64) as usize;
                    let (home, sub) = live.swap_remove(victim);
                    client.unsubscribe(home, sub.id())?;
                }
            }
            _ => {
                let x = slice_lo + rng.unit() * (slice_hi - slice_lo);
                let y = rng.unit() * DOMAIN;
                let event =
                    Event::new(&schema, vec![x, y]).map_err(|e| ServiceError::Io(e.to_string()))?;
                let deliveries = client.publish(step % BROKERS, &event)?;
                let mut expected: Vec<(usize, u64)> = live
                    .iter()
                    .filter(|(_, sub)| sub.matches(&event))
                    .map(|(home, sub)| (*home, sub.id()))
                    .collect();
                expected.sort_unstable();
                assert_eq!(
                    deliveries, expected,
                    "connection {index} step {step}: daemon deliveries diverged \
                     from the in-process oracle"
                );
                publishes += 1;
            }
        }
    }

    for (home, sub) in live {
        client.unsubscribe(home, sub.id())?;
    }
    Ok(publishes)
}

fn churn_over_daemon(policy: &str) {
    let daemon = start(policy);
    let checked: Vec<usize> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|index| {
                let addr = daemon.addr.as_str();
                scope.spawn(move || drive(addr, index))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .expect("connection thread")
                    .expect("connection ran clean")
            })
            .collect()
    });
    // Every connection actually exercised the publish path.
    for (index, publishes) in checked.iter().enumerate() {
        assert!(
            *publishes > 0,
            "connection {index} never published — churn mix degenerated"
        );
    }
}

#[test]
fn concurrent_connections_get_oracle_exact_deliveries_exact_sfc() {
    churn_over_daemon("exact-sfc");
}

#[test]
fn concurrent_connections_get_oracle_exact_deliveries_flooding() {
    churn_over_daemon("none");
}

/// Grid cells per attribute of the daemon's default schema (`--bits 10`).
const CELLS: u64 = 1 << 10;
const ROUNDS: usize = 30;
const OPS_PER_ROUND: usize = 12;

/// One connection's live subscriptions in the overlapping case, with their
/// home brokers.
type Owned = Vec<(usize, Subscription)>;

/// The value at the middle of grid cell `cell`. Every bound and event value
/// is one, so grid covering is raw covering and the oracle is exact (no
/// cell-boundary slack).
fn mid(cell: u64) -> f64 {
    (cell as f64 + 0.5) * DOMAIN / CELLS as f64
}

/// One connection's share of one round: subscribes drawn from the whole
/// domain — one in four wide enough to cover most of what any connection
/// holds — and unsubscribes of its own.
fn overlap_round(
    client: &mut BrokerClient,
    rng: &mut Rng,
    next_id: &mut SubId,
    own: &mut Owned,
) -> Result<(), ServiceError> {
    for _ in 0..OPS_PER_ROUND {
        if rng.below(5) < 3 {
            let mut range = || {
                let (lo, len) = match rng.below(4) {
                    0 => (rng.below(CELLS / 8), CELLS / 2 + rng.below(CELLS / 2)),
                    _ => (rng.below(CELLS), rng.below(CELLS / 5)),
                };
                (mid(lo), mid((lo + len).min(CELLS - 1)))
            };
            *next_id += 1;
            let bounds = [range(), range()];
            let sub = Subscription::from_raw_bounds(client.schema(), *next_id, &bounds)
                .map_err(|e| ServiceError::Io(e.to_string()))?;
            let home = (*next_id % BROKERS as u64) as usize;
            client.subscribe(home, *next_id, &sub)?;
            own.push((home, sub));
        } else if !own.is_empty() {
            let victim = rng.below(own.len() as u64) as usize;
            let (home, sub) = own.swap_remove(victim);
            client.unsubscribe(home, sub.id())?;
        }
    }
    Ok(())
}

/// Publishes probe events through `client` on the quiescent daemon: each
/// answer must be exactly the union of every connection's live set.
fn check_quiescent(client: &mut BrokerClient, rng: &mut Rng, owned: &[Owned]) {
    let schema = client.schema().clone();
    for probe in 0..16 {
        let values = vec![mid(rng.below(CELLS)), mid(rng.below(CELLS))];
        let event = Event::new(&schema, values).unwrap();
        let mut expected: Vec<(usize, u64)> = owned
            .iter()
            .flatten()
            .filter(|(_, sub)| sub.matches(&event))
            .map(|(home, sub)| (*home, sub.id()))
            .collect();
        expected.sort_unstable();
        let deliveries = client.publish(probe % BROKERS, &event).unwrap();
        assert_eq!(deliveries, expected, "{event}");
    }
}

#[test]
fn overlapping_connections_get_oracle_exact_deliveries() {
    let daemon = start("exact-sfc");
    let connect = || BrokerClient::connect(daemon.addr.as_str()).unwrap();
    let mut clients: Vec<BrokerClient> = (0..CONNECTIONS).map(|_| connect()).collect();
    let mut owned: Vec<Owned> = (0..CONNECTIONS).map(|_| Owned::new()).collect();
    let mut rngs: Vec<Rng> = (0..CONNECTIONS).map(|c| Rng(0x0AC0 + c as u64)).collect();
    let mut next_ids: Vec<SubId> = (0..CONNECTIONS).map(|c| c as u64 * 1_000_000).collect();
    let mut probe_rng = Rng(0xACD1);
    let mut most_live = 0;
    for _ in 0..ROUNDS {
        // The scope's join is the quiescent point (every request was
        // acknowledged, so applied); the barrier makes the connections'
        // rounds start together, so they overlap.
        let start = Barrier::new(CONNECTIONS);
        std::thread::scope(|scope| {
            let shares = clients.iter_mut().zip(&mut rngs).zip(&mut next_ids);
            for (((client, rng), next_id), own) in shares.zip(&mut owned) {
                let start = &start;
                scope.spawn(move || {
                    start.wait();
                    overlap_round(client, rng, next_id, own).expect("round ran clean");
                });
            }
        });
        check_quiescent(&mut clients[0], &mut probe_rng, &owned);
        most_live = most_live.max(owned.iter().map(Vec::len).sum::<usize>());
    }
    assert!(most_live > 50, "the live set stayed small: {most_live}");
    // Drained, the daemon delivers nothing.
    for (client, own) in clients.iter_mut().zip(&mut owned) {
        for (home, sub) in own.drain(..) {
            client.unsubscribe(home, sub.id()).unwrap();
        }
    }
    check_quiescent(&mut clients[0], &mut probe_rng, &owned);
}

/// A pipelined burst far longer than two socket buffers hold completes
/// against a default daemon (no write deadline, no in-flight cap): the
/// client reads each window's answers back before it sends the next, so the
/// daemon is never left blocked writing answers nobody reads while the
/// client blocks writing requests the daemon no longer reads. The burst is
/// long enough to fill both directions' loopback buffers: a client that
/// wrote every request before reading hung at 500 000 events on a 2-vCPU
/// Linux machine (200 000 still fit). A watchdog fails the test instead of
/// letting a deadlock hang it.
#[test]
fn a_long_publish_batch_completes_against_a_default_daemon() {
    const EVENTS: usize = 500_000;
    let daemon = start("exact-sfc");
    let addr = daemon.addr.clone();
    let (done, finished) = mpsc::channel();
    std::thread::spawn(move || {
        let burst = || -> Result<Vec<bool>, ServiceError> {
            let mut client = BrokerClient::connect(addr.as_str())?;
            let schema = client.schema().clone();
            let sub = SubscriptionBuilder::new(&schema)
                .range("attr0", 0.0, DOMAIN / 20.0)
                .build(1)
                .unwrap();
            client.subscribe(3, 7, &sub)?;
            // Every tenth event is delivered to client 7 at broker 3.
            let events: Vec<Event> = (0..EVENTS)
                .map(|i| Event::new(&schema, vec![(i % 10) as f64 * DOMAIN / 10.0, 1.0]))
                .collect::<Result<_, _>>()
                .unwrap();
            let lists = client
                .publish_batch(0, &events)
                .map_err(ServiceError::from)?;
            Ok(lists.iter().map(|pairs| pairs == &[(3, 7)]).collect())
        };
        let _ = done.send(burst());
    });
    match finished.recv_timeout(Duration::from_secs(120)) {
        Ok(delivered) => {
            let delivered = delivered.expect("the burst ran clean");
            assert_eq!(delivered.len(), EVENTS);
            let expected = (0..EVENTS).map(|i| i % 10 == 0);
            assert!(delivered.into_iter().eq(expected));
        }
        Err(RecvTimeoutError::Timeout) => {
            panic!("{EVENTS} pipelined publishes did not finish in 120 s: the pipeline deadlocked")
        }
        Err(RecvTimeoutError::Disconnected) => panic!("the burst's thread panicked"),
    }
}
