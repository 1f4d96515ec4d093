//! Chaos suite: drive resilient clients through a real `acd-brokerd`
//! process that injects deterministic transport faults (`--chaos`), and
//! assert the system's end-to-end promises hold anyway:
//!
//! * **Oracle-exact deliveries** — every acknowledged publish returns
//!   exactly the deliveries an in-process oracle predicts from the
//!   client's live subscription set, regardless of how many retries,
//!   reconnects and session replays it took to get the answer.
//! * **Kill-9 survival** — SIGKILLing the daemon mid-churn and restarting
//!   it on the same port ends with every [`ResilientClient`] reconnected
//!   and its full subscription set replayed (proved by delivery
//!   equality, not by asking nicely).
//! * **Overload shedding** — a capped daemon answers excess connections
//!   with a typed `Rejected` within the deadline instead of stalling.
//!
//! Fault schedules are injected *server-side*, so the clients under test
//! run over clean TCP and see the full damage: dropped and corrupted
//! responses, truncated frames, hard disconnects, stalls, and partial
//! writes.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use acd_broker::{BrokerClient, ClientStats, ResilientClient, RetryPolicy, ServiceError};
use acd_subscription::{Event, Schema, Subscription, SubscriptionBuilder};

mod support;
use support::{restart_on, DaemonGuard, Rng, DOMAIN, LINE_OF_SIX};

const CLIENTS: usize = 2;
const OPS_PER_CLIENT: usize = 60;
const BROKERS: usize = LINE_OF_SIX.brokers;

/// A policy tight enough to keep fault recovery fast, patient enough to
/// ride out every schedule in this suite.
fn chaos_policy(seed: u64) -> RetryPolicy {
    RetryPolicy {
        max_attempts: 25,
        base_backoff: Duration::from_millis(2),
        max_backoff: Duration::from_millis(50),
        request_timeout: Some(Duration::from_millis(400)),
        jitter_seed: seed,
    }
}

/// Drives one client's churn mix — subscribe, unsubscribe, publish, and
/// pipelined batches — asserting oracle-exact deliveries for every
/// acknowledged publish. Each client owns a disjoint slice of `attr0`'s
/// domain, so its deliveries are predictable from its own live set alone.
fn churn(addr: &str, index: usize) -> (usize, ClientStats) {
    let mut client = ResilientClient::connect(addr, chaos_policy(0xC0 + index as u64))
        .expect("client connects under the fault schedule");
    let schema: Schema = client.schema().clone();
    let mut rng = Rng(0xCAFE + index as u64);
    let width = DOMAIN / CLIENTS as f64;
    // Margins keep neighboring slices out of each other's grid cells.
    let (slice_lo, slice_hi) = (
        index as f64 * width + width * 0.05,
        (index + 1) as f64 * width - width * 0.05,
    );
    let mut live: Vec<(usize, Subscription)> = Vec::new();
    let mut next_id = (index as u64 + 1) * 1_000_000;
    let mut publishes = 0usize;

    let expect_for = |live: &[(usize, Subscription)], event: &Event| {
        let mut expected: Vec<(usize, u64)> = live
            .iter()
            .filter(|(_, sub)| sub.matches(event))
            .map(|(home, sub)| (*home, sub.id()))
            .collect();
        expected.sort_unstable();
        expected
    };
    let make_event = |rng: &mut Rng| {
        let x = slice_lo + rng.unit() * (slice_hi - slice_lo);
        let y = rng.unit() * DOMAIN;
        Event::new(&schema, vec![x, y]).expect("in-domain event")
    };

    for step in 0..OPS_PER_CLIENT {
        match rng.below(10) {
            0..=2 => {
                let lo = slice_lo + rng.unit() * (slice_hi - slice_lo) * 0.8;
                let hi = lo + rng.unit() * (slice_hi - lo);
                let y_lo = rng.unit() * DOMAIN * 0.8;
                let y_hi = y_lo + rng.unit() * (DOMAIN - y_lo);
                next_id += 1;
                let sub = SubscriptionBuilder::new(&schema)
                    .range("attr0", lo, hi)
                    .range("attr1", y_lo, y_hi)
                    .build(next_id)
                    .expect("well-formed subscription");
                let home = (next_id % BROKERS as u64) as usize;
                client
                    .subscribe(home, next_id, &sub)
                    .expect("subscribe rides out the fault schedule");
                live.push((home, sub));
            }
            3 | 4 => {
                if !live.is_empty() {
                    let victim = rng.below(live.len() as u64) as usize;
                    let (home, sub) = live.swap_remove(victim);
                    client
                        .unsubscribe(home, sub.id())
                        .expect("unsubscribe rides out the fault schedule");
                }
            }
            5 => {
                // Pipelined batch: partial failures must resume from the
                // acknowledged prefix without re-publishing acked events.
                let events: Vec<Event> = (0..4).map(|_| make_event(&mut rng)).collect();
                let deliveries = client
                    .publish_batch(step % BROKERS, &events)
                    .expect("batch rides out the fault schedule");
                assert_eq!(deliveries.len(), events.len());
                for (event, got) in events.iter().zip(&deliveries) {
                    assert_eq!(
                        *got,
                        expect_for(&live, event),
                        "client {index} step {step}: batch deliveries diverged \
                         from the oracle"
                    );
                }
                publishes += events.len();
            }
            _ => {
                let event = make_event(&mut rng);
                let deliveries = client
                    .publish(step % BROKERS, &event)
                    .expect("publish rides out the fault schedule");
                assert_eq!(
                    deliveries,
                    expect_for(&live, &event),
                    "client {index} step {step}: deliveries diverged from \
                     the oracle"
                );
                publishes += 1;
            }
        }
    }

    for (home, sub) in live {
        client
            .unsubscribe(home, sub.id())
            .expect("final drain rides out the fault schedule");
    }
    assert!(
        client.tracked_subscriptions().is_empty(),
        "drained client tracks nothing"
    );
    (publishes, client.stats())
}

/// Runs the concurrent churn mix against a daemon injecting `spec`.
fn churn_under(spec: &str) -> Vec<ClientStats> {
    let daemon = DaemonGuard::start(LINE_OF_SIX, &["--chaos", spec]);
    let results: Vec<(usize, ClientStats)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|index| {
                let addr = daemon.addr.as_str();
                scope.spawn(move || churn(addr, index))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    for (index, (publishes, _)) in results.iter().enumerate() {
        assert!(
            *publishes > 0,
            "client {index} never published — churn mix degenerated"
        );
    }
    results.into_iter().map(|(_, stats)| stats).collect()
}

#[test]
fn churn_is_oracle_exact_under_dropped_responses() {
    churn_under("seed=11,drop=0.02");
}

#[test]
fn churn_is_oracle_exact_under_corrupted_frames() {
    churn_under("seed=12,corrupt=0.03");
}

#[test]
fn churn_is_oracle_exact_under_truncated_frames() {
    churn_under("seed=13,truncate=0.02");
}

#[test]
fn churn_is_oracle_exact_under_hard_disconnects() {
    churn_under("seed=14,disconnect=0.02");
}

#[test]
fn churn_is_oracle_exact_under_latency_jitter_and_stalls() {
    // Stalls stay under the request deadline: a pure-latency schedule is a
    // liveness check, not a failure drill.
    churn_under("seed=15,delay=0.3,delay-ms=2,stall=0.01,stall-ms=50");
}

#[test]
fn churn_is_oracle_exact_under_partial_writes() {
    // Capping every server write at 7 bytes must be invisible: buffered
    // writers loop, nothing times out, nobody retries.
    let stats = churn_under("seed=16,max-write=7");
    for (index, s) in stats.iter().enumerate() {
        assert_eq!(
            *s,
            ClientStats::default(),
            "client {index}: partial writes alone must not force repairs"
        );
    }
}

#[test]
fn churn_is_oracle_exact_under_the_full_fault_mix() {
    churn_under(
        "seed=17,drop=0.01,corrupt=0.02,truncate=0.01,disconnect=0.01,\
         delay=0.2,delay-ms=1,stall=0.005,stall-ms=50,max-write=64",
    );
}

#[test]
fn batched_publishes_are_oracle_exact_under_faults() {
    // Large pipelined batches take the daemon's batched execution path;
    // under drops and disconnects the resilient client resumes each batch
    // from its acknowledged prefix, and every event's deliveries must still
    // match the oracle exactly — no event lost, duplicated or re-executed.
    let daemon = DaemonGuard::start(
        LINE_OF_SIX,
        &["--chaos", "seed=18,drop=0.02,disconnect=0.01"],
    );
    let mut client = ResilientClient::connect(&daemon.addr, chaos_policy(0xBA7C4))
        .expect("client connects under the fault schedule");
    let schema: Schema = client.schema().clone();
    let mut rng = Rng(0xFEED);
    let mut live: Vec<(usize, Subscription)> = Vec::new();
    for i in 0..6u64 {
        let lo = rng.unit() * DOMAIN * 0.7;
        let hi = lo + rng.unit() * (DOMAIN - lo);
        let sub = SubscriptionBuilder::new(&schema)
            .range("attr0", lo, hi)
            .range("attr1", 0.0, DOMAIN)
            .build(i + 1)
            .expect("well-formed subscription");
        let home = (i % BROKERS as u64) as usize;
        client.subscribe(home, i + 1, &sub).expect("subscribe");
        live.push((home, sub));
    }
    for round in 0..10 {
        let events: Vec<Event> = (0..16)
            .map(|_| {
                Event::new(&schema, vec![rng.unit() * DOMAIN, rng.unit() * DOMAIN])
                    .expect("in-domain event")
            })
            .collect();
        let deliveries = client
            .publish_batch(round % BROKERS, &events)
            .expect("the batch rides out the fault schedule");
        assert_eq!(deliveries.len(), events.len());
        for (event, got) in events.iter().zip(&deliveries) {
            let mut expected: Vec<(usize, u64)> = live
                .iter()
                .filter(|(_, sub)| sub.matches(event))
                .map(|(home, sub)| (*home, sub.id()))
                .collect();
            expected.sort_unstable();
            assert_eq!(*got, expected, "round {round}: batched deliveries diverged");
        }
    }
    for (home, sub) in live {
        client.unsubscribe(home, sub.id()).expect("final drain");
    }
}

#[test]
fn kill_nine_and_restart_mid_churn_leaves_every_client_resubscribed() {
    const SUBS_PER_CLIENT: usize = 4;
    let mut daemon = DaemonGuard::start(LINE_OF_SIX, &[]);
    let addr = daemon.addr.clone();

    let stop = AtomicBool::new(false);
    let progress: Vec<AtomicU64> = (0..CLIENTS).map(|_| AtomicU64::new(0)).collect();

    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|index| {
                let addr = addr.as_str();
                let stop = &stop;
                let progress = &progress[index];
                scope.spawn(move || {
                    // Patient enough to ride out the restart gap.
                    let policy = RetryPolicy {
                        max_attempts: 200,
                        base_backoff: Duration::from_millis(5),
                        max_backoff: Duration::from_millis(100),
                        request_timeout: Some(Duration::from_millis(500)),
                        jitter_seed: index as u64,
                    };
                    let mut client = ResilientClient::connect(addr, policy)
                        .expect("client connects before the outage");
                    let schema = client.schema().clone();
                    let width = DOMAIN / CLIENTS as f64;
                    let center = (index as f64 + 0.5) * width;
                    let mut expected = Vec::new();
                    for s in 0..SUBS_PER_CLIENT {
                        let id = (index as u64 + 1) * 1_000 + s as u64;
                        let sub = SubscriptionBuilder::new(&schema)
                            .range("attr0", center - width * 0.2, center + width * 0.2)
                            .range("attr1", 0.0, DOMAIN)
                            .build(id)
                            .expect("well-formed subscription");
                        let home = (id % BROKERS as u64) as usize;
                        client.subscribe(home, id, &sub).expect("subscribe");
                        expected.push((home, id));
                    }
                    expected.sort_unstable();
                    let event =
                        Event::new(&schema, vec![center, DOMAIN / 2.0]).expect("in-domain event");
                    // Publish continuously across the kill and the restart:
                    // every acknowledged publish must deliver to the full
                    // replayed subscription set.
                    let mut step = 0usize;
                    while !stop.load(Ordering::Relaxed) {
                        let deliveries = client
                            .publish(step % BROKERS, &event)
                            .expect("publish rides through kill-9 and restart");
                        assert_eq!(
                            deliveries, expected,
                            "client {index}: replayed subscription set diverged"
                        );
                        progress.fetch_add(1, Ordering::Relaxed);
                        step += 1;
                    }
                    assert_eq!(
                        client.tracked_subscriptions().len(),
                        SUBS_PER_CLIENT,
                        "client {index} still tracks its whole live set"
                    );
                    client.stats()
                })
            })
            .collect();

        // Let every client get some churn in, then pull the rug.
        let wait_for = |floor: Vec<u64>| {
            let deadline = Instant::now() + Duration::from_secs(30);
            while progress
                .iter()
                .zip(&floor)
                .any(|(p, f)| p.load(Ordering::Relaxed) < *f)
            {
                assert!(Instant::now() < deadline, "clients stopped making progress");
                std::thread::sleep(Duration::from_millis(10));
            }
        };
        wait_for(vec![5; CLIENTS]);
        daemon.kill_nine();
        std::thread::sleep(Duration::from_millis(200));
        daemon = restart_on(&addr, LINE_OF_SIX, &[]);
        // Every client must publish successfully against the *restarted*
        // daemon before we stop — that forces reconnect + full replay.
        let snapshot: Vec<u64> = progress
            .iter()
            .map(|p| p.load(Ordering::Relaxed) + 5)
            .collect();
        wait_for(snapshot);
        stop.store(true, Ordering::Relaxed);

        for (index, handle) in handles.into_iter().enumerate() {
            let stats = handle.join().expect("client thread");
            assert!(
                stats.reconnects >= 1,
                "client {index} rode through the restart without reconnecting? \
                 stats: {stats:?}"
            );
        }
    });
    drop(daemon);
}

#[test]
fn overload_answers_rejected_within_the_deadline() {
    let daemon = DaemonGuard::start(LINE_OF_SIX, &["--max-connections", "1"]);
    let _first = BrokerClient::connect(&daemon.addr).expect("first connection fits under the cap");
    let started = Instant::now();
    let second = BrokerClient::connect(&daemon.addr);
    let elapsed = started.elapsed();
    match second {
        Err(ServiceError::Overloaded { reason }) => {
            assert!(
                reason.contains("connection cap"),
                "rejection names the cap: {reason:?}"
            );
        }
        other => panic!("expected a typed Overloaded rejection, got {other:?}"),
    }
    assert!(
        elapsed < Duration::from_secs(2),
        "Rejected must arrive within the deadline, took {elapsed:?}"
    );
}

#[test]
fn resilient_client_surfaces_overload_after_bounded_retries() {
    let daemon = DaemonGuard::start(LINE_OF_SIX, &["--max-connections", "1"]);
    let _first = BrokerClient::connect(&daemon.addr).expect("first connection fits under the cap");
    let policy = RetryPolicy {
        max_attempts: 3,
        base_backoff: Duration::from_millis(1),
        max_backoff: Duration::from_millis(5),
        request_timeout: Some(Duration::from_secs(2)),
        jitter_seed: 9,
    };
    let gave_up = ResilientClient::connect(&daemon.addr, policy)
        .expect_err("a capped daemon refuses the second client");
    assert_eq!(gave_up.attempts, 3);
    assert!(
        matches!(gave_up.error, ServiceError::Overloaded { .. }),
        "typed overload, not a generic I/O error: {:?}",
        gave_up.error
    );
}
