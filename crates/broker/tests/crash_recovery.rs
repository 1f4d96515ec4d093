//! Crash-recovery e2e: kill -9 a real `acd-brokerd --data-dir` process
//! mid-churn, restart it over the same directory, and prove the durable
//! subscription set survived — by delivery equality against an oracle
//! folded from the *acknowledged* operations, not by asking nicely.
//!
//! The clients here are plain [`BrokerClient`]s on purpose: a
//! `ResilientClient` replays its own subscription set after a reconnect,
//! which would mask the thing under test. Whatever the restarted daemon
//! serves, it serves because the journal preserved it.
//!
//! Durability contract being exercised: every acked subscribe/unsubscribe
//! was journaled (flushed to the OS) *before* its ack frame was sent, so
//! the recovered set must contain every acked subscribe not followed by
//! an acked unsubscribe. The single operation that may have been in
//! flight when the SIGKILL landed is genuinely ambiguous — the daemon may
//! or may not have journaled it before dying — and the oracle treats it
//! as such.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use acd_broker::BrokerClient;
use acd_subscription::{Event, Schema, Subscription, SubscriptionBuilder};

mod support;
use support::{restart_on, DaemonGuard, DOMAIN, LINE_OF_SIX};

const BROKERS: usize = LINE_OF_SIX.brokers;
const CLIENT: u64 = 7;
/// Kill the daemon once this many operations are acknowledged.
const OPS_BEFORE_KILL: usize = 40;

/// One churn operation: subscribe `id` or retract it.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Op {
    Subscribe(u64),
    Unsubscribe(u64),
}

impl Op {
    fn id(self) -> u64 {
        match self {
            Op::Subscribe(id) | Op::Unsubscribe(id) => id,
        }
    }
}

/// What the churn thread has seen acknowledged, plus the operation in
/// flight (attempted, ack unknown) at any moment.
#[derive(Default)]
struct ChurnLog {
    acked: Vec<Op>,
    in_flight: Option<Op>,
}

/// Each id gets a disjoint slice of attribute 0, so a probe event aimed
/// at id `i` matches subscription `i` and nothing else.
fn sub_for(schema: &Schema, id: u64) -> Subscription {
    let base = id as f64 * 1_000.0;
    SubscriptionBuilder::new(schema)
        .range("attr0", base + 100.0, base + 500.0)
        .range("attr1", 0.0, DOMAIN)
        .build(id)
        .unwrap()
}

fn probe_for(schema: &Schema, id: u64) -> Event {
    Event::new(schema, vec![id as f64 * 1_000.0 + 300.0, 123.0]).unwrap()
}

fn home_broker(id: u64) -> usize {
    (id % BROKERS as u64) as usize
}

#[test]
fn kill_nine_mid_churn_restarts_with_the_acked_subscription_set() {
    let dir = std::env::temp_dir().join(format!("acd-crash-recovery-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let dir_flag = dir.to_str().expect("temp dir is UTF-8").to_string();
    let mut daemon = DaemonGuard::start(LINE_OF_SIX, &["--data-dir", &dir_flag]);
    let addr = daemon.addr.clone();

    // Churn from a second thread so the SIGKILL genuinely lands mid-churn.
    let log = Arc::new(Mutex::new(ChurnLog::default()));
    let stop = Arc::new(AtomicBool::new(false));
    let churn = {
        let log = Arc::clone(&log);
        let stop = Arc::clone(&stop);
        let addr = addr.clone();
        std::thread::spawn(move || {
            let mut client = BrokerClient::connect(&*addr).expect("churn client connects");
            let schema = client.schema().clone();
            // Deterministic churn: subscribe a fresh id each step,
            // retracting the oldest live one every third step, so the
            // live set both grows and shrinks while the journal records
            // interleaved kinds.
            let mut step = 0u64;
            let mut next_id = 0u64;
            let mut oldest: Vec<u64> = Vec::new();
            while !stop.load(Ordering::SeqCst) {
                let op = if step % 3 == 2 && !oldest.is_empty() {
                    Op::Unsubscribe(oldest.remove(0))
                } else {
                    let id = next_id;
                    next_id += 1;
                    oldest.push(id);
                    Op::Subscribe(id)
                };
                log.lock().unwrap().in_flight = Some(op);
                let outcome = match op {
                    Op::Subscribe(id) => {
                        client.subscribe(home_broker(id), CLIENT, &sub_for(&schema, id))
                    }
                    Op::Unsubscribe(id) => client.unsubscribe(home_broker(id), id),
                };
                match outcome {
                    Ok(()) => {
                        let mut log = log.lock().unwrap();
                        log.in_flight = None;
                        log.acked.push(op);
                    }
                    // The daemon is dead: the in-flight marker stays set —
                    // that operation's fate is ambiguous.
                    Err(e) => {
                        eprintln!("churn stopped at step {step}: {e}");
                        break;
                    }
                }
                step += 1;
            }
        })
    };

    // Let the churn make real progress, then kill without ceremony.
    let deadline = Instant::now() + Duration::from_secs(30);
    while log.lock().unwrap().acked.len() < OPS_BEFORE_KILL {
        assert!(Instant::now() < deadline, "churn made no progress");
        std::thread::sleep(Duration::from_millis(5));
    }
    daemon.kill_nine();
    stop.store(true, Ordering::SeqCst);
    churn.join().expect("churn thread exits");

    // Oracle: fold the acked operations into the surviving set.
    let (acked, ambiguous) = {
        let log = log.lock().unwrap();
        (log.acked.clone(), log.in_flight)
    };
    assert!(acked.len() >= OPS_BEFORE_KILL);
    let mut live: Vec<u64> = Vec::new();
    let mut seen: Vec<u64> = Vec::new();
    for op in &acked {
        if !seen.contains(&op.id()) {
            seen.push(op.id());
        }
        match op {
            Op::Subscribe(id) => live.push(*id),
            Op::Unsubscribe(id) => live.retain(|x| x != id),
        }
    }

    // Restart over the same directory — the journal is all it has.
    let daemon = restart_on(&addr, LINE_OF_SIX, &["--data-dir", &dir_flag]);
    let mut client = BrokerClient::connect(&*daemon.addr).expect("post-restart client connects");
    let schema = client.schema().clone();
    for &id in &seen {
        if ambiguous.map(|op| op.id()) == Some(id) {
            // The one operation the SIGKILL may have interrupted: the
            // daemon may or may not have journaled it before dying.
            continue;
        }
        let deliveries = client
            .publish(home_broker(id + 1), &probe_for(&schema, id))
            .expect("probe publish succeeds");
        let expected: Vec<(usize, u64)> = if live.contains(&id) {
            vec![(home_broker(id), CLIENT)]
        } else {
            vec![]
        };
        assert_eq!(
            deliveries, expected,
            "recovered daemon disagrees with the acked oracle on id {id}"
        );
    }

    // The recovered registrations are live state, not a read-only replay:
    // a fresh client can retract one and register new ones.
    // (Not the ambiguous id: when the SIGKILL interrupts an unsubscribe it
    // is the *oldest* live id whose fate is unknown.)
    let settled = live
        .iter()
        .find(|&&id| ambiguous.map(|op| op.id()) != Some(id));
    if let Some(&id) = settled {
        client.unsubscribe(home_broker(id), id).unwrap();
        assert_eq!(
            client
                .publish(home_broker(id + 1), &probe_for(&schema, id))
                .unwrap(),
            vec![]
        );
    }
    // Stays inside the schema domain: base 900_000 + 500 < 1e6.
    let new_id = 900;
    client
        .subscribe(home_broker(new_id), CLIENT, &sub_for(&schema, new_id))
        .unwrap();
    assert_eq!(
        client.publish(0, &probe_for(&schema, new_id)).unwrap(),
        vec![(home_broker(new_id), CLIENT)]
    );

    drop(client);
    drop(daemon);
    std::fs::remove_dir_all(&dir).ok();
}
