//! A self-healing client layered over [`BrokerClient`]: deadlines, bounded
//! backoff, automatic reconnect with session replay, and typed outcomes.
//!
//! [`ResilientClient`] owns the full failure policy the bare client leaves
//! to its caller:
//!
//! * **Per-request deadlines** — every socket read/write carries
//!   [`RetryPolicy::request_timeout`], so a stalled daemon surfaces as a
//!   timed-out attempt instead of a hang.
//! * **Bounded exponential backoff with deterministic jitter** — retry
//!   pauses double from [`RetryPolicy::base_backoff`] up to
//!   [`RetryPolicy::max_backoff`], scaled by a jitter factor drawn from the
//!   vendored seeded generator, so a failing run replays exactly from
//!   [`RetryPolicy::jitter_seed`].
//! * **Reconnect with session resumption** — the client tracks its live
//!   subscription set; on a fresh connection it bumps its session *epoch*
//!   and replays every tracked subscription via idempotent
//!   `Resubscribe` frames before the interrupted request is retried. The
//!   epoch lets the daemon discard stale requests from the dead
//!   connection (see `session.rs`).
//! * **Typed outcomes instead of panics** — operations return [`GaveUp`]
//!   (attempt count + final error) when the policy is exhausted, and
//!   [`stats`](ResilientClient::stats) counts the repair work absorbed.
//!
//! What is retried: transport failures (I/O errors, corrupt or truncated
//! frames, protocol desync) after a reconnect, and [`ServiceError::
//! Overloaded`] shedding answers after a backoff on the same connection.
//! What is not: semantic rejections ([`ServiceError::Rejected`]) surface
//! immediately — retrying a duplicate-id subscribe or an unknown-broker
//! publish cannot succeed.

use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;
use std::io::ErrorKind;
use std::net::{SocketAddr, ToSocketAddrs};
use std::thread;
use std::time::Duration;

use acd_subscription::{Event, Schema, SubId, Subscription};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::broker::{BrokerId, ClientId};
use crate::client::{BatchError, BrokerClient};
use crate::error::ServiceError;

/// Failure policy for a [`ResilientClient`].
#[derive(Debug, Clone, PartialEq)]
pub struct RetryPolicy {
    /// Attempts per operation, first try included (minimum 1).
    pub max_attempts: usize,
    /// First retry pause; doubles per subsequent retry.
    pub base_backoff: Duration,
    /// Backoff ceiling.
    pub max_backoff: Duration,
    /// Socket read/write deadline per attempt (`None` blocks forever).
    pub request_timeout: Option<Duration>,
    /// Seed of the deterministic jitter stream.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 6,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_secs(2),
            request_timeout: Some(Duration::from_secs(2)),
            jitter_seed: 0,
        }
    }
}

/// The retry policy gave out: `attempts` tries all failed, the last one
/// with `error`. Also returned (with the true attempt count) for
/// non-retryable semantic rejections, so every failure path is typed.
#[derive(Debug, Clone, PartialEq)]
pub struct GaveUp {
    /// Attempts performed before giving up (1 = failed without retrying).
    pub attempts: usize,
    /// The error that ended the operation.
    pub error: ServiceError,
}

impl fmt::Display for GaveUp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "gave up after {} attempt(s): {}",
            self.attempts, self.error
        )
    }
}

impl Error for GaveUp {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        Some(&self.error)
    }
}

impl From<GaveUp> for ServiceError {
    fn from(g: GaveUp) -> ServiceError {
        g.error
    }
}

/// Cumulative repair counters for one client.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClientStats {
    /// Failed attempts that were retried (including failed reconnects).
    pub retries: u64,
    /// Successful reconnections after the initial connect.
    pub reconnects: u64,
}

/// One tracked live subscription, kept for replay on reconnect.
#[derive(Debug, Clone)]
struct TrackedSub {
    at: BrokerId,
    client: ClientId,
    subscription: Subscription,
}

/// How a failed attempt should be handled.
enum Verdict {
    /// Semantic rejection: surface immediately.
    Fatal,
    /// Overload shedding: back off and retry on the same connection.
    RetrySameConnection,
    /// Transport/protocol damage: drop the connection, reconnect, retry.
    RetryReconnect,
}

fn verdict(error: &ServiceError) -> Verdict {
    match error {
        ServiceError::Rejected { .. } | ServiceError::Broker(_) => Verdict::Fatal,
        ServiceError::Overloaded { .. } => Verdict::RetrySameConnection,
        // Corruption can masquerade as a version mismatch (the version
        // byte is checked before the checksum) and a desynced pipeline as
        // an unexpected frame — all of it is transport damage here.
        ServiceError::Io(_)
        | ServiceError::CorruptFrame { .. }
        | ServiceError::VersionMismatch { .. }
        | ServiceError::UnexpectedFrame { .. } => Verdict::RetryReconnect,
    }
}

/// A [`BrokerClient`] wrapped in the failure policy described in the
/// module docs.
#[derive(Debug)]
pub struct ResilientClient {
    addr: SocketAddr,
    policy: RetryPolicy,
    jitter: StdRng,
    conn: Option<BrokerClient>,
    /// Session epoch: bumped per established connection, carried by every
    /// `Resubscribe`/`Retract` so the daemon can discard stale requests.
    epoch: u64,
    subs: BTreeMap<SubId, TrackedSub>,
    schema: Option<Schema>,
    stats: ClientStats,
}

impl ResilientClient {
    /// Resolves `addr` and establishes the first connection under the
    /// policy (retrying connect failures like any other operation).
    ///
    /// # Errors
    ///
    /// Returns [`GaveUp`] when no connection could be established within
    /// the policy.
    pub fn connect(
        addr: impl ToSocketAddrs,
        policy: RetryPolicy,
    ) -> Result<ResilientClient, GaveUp> {
        let addr = addr
            .to_socket_addrs()
            .ok()
            .and_then(|mut it| it.next())
            .ok_or_else(|| GaveUp {
                attempts: 1,
                error: ServiceError::Io(format!(
                    "address did not resolve ({})",
                    ErrorKind::AddrNotAvailable
                )),
            })?;
        let jitter = StdRng::seed_from_u64(policy.jitter_seed);
        let mut client = ResilientClient {
            addr,
            policy,
            jitter,
            conn: None,
            epoch: 0,
            subs: BTreeMap::new(),
            schema: None,
            stats: ClientStats::default(),
        };
        client.with_retries(|_, _| Ok(()))?;
        Ok(client)
    }

    /// The daemon's schema, from the `Hello` greeting of the first
    /// connection.
    pub fn schema(&self) -> &Schema {
        self.schema
            .as_ref()
            .expect("connect() established a connection, which caches the schema")
    }

    /// Cumulative repair counters.
    pub fn stats(&self) -> ClientStats {
        self.stats
    }

    /// The ids of the subscriptions this client tracks as live (the set
    /// replayed on reconnect).
    pub fn tracked_subscriptions(&self) -> Vec<SubId> {
        self.subs.keys().copied().collect()
    }

    /// Registers `subscription` for `client` at broker `at`, tracking it
    /// for replay. Uses the idempotent `Resubscribe` request, so retries
    /// and reconnect replays converge on exactly one live registration.
    ///
    /// # Errors
    ///
    /// [`GaveUp`] on policy exhaustion or semantic rejection; the
    /// subscription is untracked again in that case.
    pub fn subscribe(
        &mut self,
        at: BrokerId,
        client: ClientId,
        subscription: &Subscription,
    ) -> Result<(), GaveUp> {
        let id = subscription.id();
        // Track before sending: if the connection dies mid-request the
        // reconnect replay already carries this subscription, and the
        // retried Resubscribe is absorbed as idempotent.
        self.subs.insert(
            id,
            TrackedSub {
                at,
                client,
                subscription: subscription.clone(),
            },
        );
        let result =
            self.with_retries(|conn, epoch| conn.resubscribe(at, client, subscription, epoch));
        if result.is_err() {
            self.subs.remove(&id);
        }
        result
    }

    /// Retracts subscription `id` at broker `at` and stops tracking it.
    /// Uses the idempotent `Retract` request: retracting an id that is
    /// already gone (e.g. the daemon dropped the session) succeeds.
    ///
    /// # Errors
    ///
    /// [`GaveUp`] on policy exhaustion. The id is untracked regardless, so
    /// it will not be replayed later.
    pub fn unsubscribe(&mut self, at: BrokerId, id: SubId) -> Result<(), GaveUp> {
        self.subs.remove(&id);
        self.with_retries(|conn, epoch| conn.retract(at, id, epoch))
    }

    /// Publishes `event` at broker `at`, returning the deliveries it
    /// caused. Retried on transport failure; publishing installs no
    /// routing state, so a retry after a lost response is safe (at worst
    /// the overlay's message counters count the event twice).
    ///
    /// # Errors
    ///
    /// [`GaveUp`] on policy exhaustion or semantic rejection.
    pub fn publish(
        &mut self,
        at: BrokerId,
        event: &Event,
    ) -> Result<Vec<(BrokerId, ClientId)>, GaveUp> {
        self.with_retries(|conn, _| conn.publish(at, event))
    }

    /// Publishes a pipelined burst with resume-on-partial-failure: after a
    /// mid-batch error the retry continues from the first unacknowledged
    /// event — acknowledged publishes are **never** re-sent. Events that
    /// were in flight when a connection died are in limbo and are re-sent
    /// (see [`BatchError`] for why that is safe here).
    ///
    /// # Errors
    ///
    /// [`GaveUp`] on policy exhaustion; deliveries acknowledged before the
    /// failure are discarded with it (callers needing them should check
    /// [`stats`](Self::stats) and retry smaller batches).
    pub fn publish_batch(
        &mut self,
        at: BrokerId,
        events: &[Event],
    ) -> Result<Vec<Vec<(BrokerId, ClientId)>>, GaveUp> {
        let mut collected = Vec::with_capacity(events.len());
        self.with_retries(|conn, _| {
            let remaining = events.get(collected.len()..).unwrap_or(&[]);
            match conn.publish_batch(at, remaining) {
                Ok(mut rest) => {
                    collected.append(&mut rest);
                    Ok(())
                }
                Err(BatchError { mut acked, error }) => {
                    collected.append(&mut acked);
                    Err(error)
                }
            }
        })?;
        Ok(collected)
    }

    /// The shared retry driver: ensure a (replayed) connection, run `op`,
    /// classify failures, back off, repeat within the policy.
    fn with_retries<T>(
        &mut self,
        mut op: impl FnMut(&mut BrokerClient, u64) -> Result<T, ServiceError>,
    ) -> Result<T, GaveUp> {
        let mut last_error = ServiceError::Io("no attempt was made".into());
        let attempts = self.policy.max_attempts.max(1);
        for attempt in 1..=attempts {
            if attempt > 1 {
                self.backoff(attempt);
            }
            if let Err(e) = self.ensure_connected() {
                self.note_retry(&mut last_error, e);
                continue;
            }
            let epoch = self.epoch;
            let conn = self
                .conn
                .as_mut()
                .expect("ensure_connected just installed the connection");
            match op(conn, epoch) {
                Ok(value) => return Ok(value),
                Err(error) => {
                    match verdict(&error) {
                        Verdict::Fatal => {
                            return Err(GaveUp {
                                attempts: attempt,
                                error,
                            })
                        }
                        Verdict::RetrySameConnection => {}
                        Verdict::RetryReconnect => self.conn = None,
                    }
                    self.note_retry(&mut last_error, error);
                }
            }
        }
        Err(GaveUp {
            attempts,
            error: last_error,
        })
    }

    /// Establishes a connection if none is live: connect, apply the
    /// request deadline, bump the epoch, replay every tracked
    /// subscription. Any failure tears the half-built connection down.
    fn ensure_connected(&mut self) -> Result<(), ServiceError> {
        if self.conn.is_some() {
            return Ok(());
        }
        let reconnecting = self.epoch > 0;
        // The deadline covers the handshake too: a daemon that accepts but
        // never greets (or whose greeting is lost) is a timed-out attempt,
        // not a hang.
        let mut conn = BrokerClient::connect_with(self.addr, self.policy.request_timeout)?;
        self.epoch += 1;
        for tracked in self.subs.values() {
            conn.resubscribe(
                tracked.at,
                tracked.client,
                &tracked.subscription,
                self.epoch,
            )?;
        }
        if self.schema.is_none() {
            self.schema = Some(conn.schema().clone());
        }
        if reconnecting {
            self.stats.reconnects += 1;
        }
        self.conn = Some(conn);
        Ok(())
    }

    /// Records a failed attempt.
    fn note_retry(&mut self, last_error: &mut ServiceError, error: ServiceError) {
        self.stats.retries += 1;
        *last_error = error;
    }

    /// Sleeps the backoff for retry number `attempt - 1`: exponential from
    /// the base, capped, scaled by deterministic jitter in [0.5, 1.0).
    fn backoff(&mut self, attempt: usize) {
        thread::sleep(self.backoff_duration(attempt));
    }

    fn backoff_duration(&mut self, attempt: usize) -> Duration {
        let exponent = (attempt.saturating_sub(2)).min(16) as u32;
        let raw = self
            .policy
            .base_backoff
            .saturating_mul(1u32 << exponent)
            .min(self.policy.max_backoff);
        raw.mul_f64(0.5 + 0.5 * self.jitter.gen::<f64>())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::BrokerConfig;
    use crate::service::{BrokerDaemon, DaemonOptions};
    use crate::topology::Topology;
    use acd_covering::CoveringPolicy;
    use acd_subscription::SubscriptionBuilder;
    use std::net::TcpListener;
    use std::sync::Arc;

    fn fast_policy() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 20,
            base_backoff: Duration::from_millis(5),
            max_backoff: Duration::from_millis(50),
            request_timeout: Some(Duration::from_secs(2)),
            jitter_seed: 7,
        }
    }

    fn start_daemon(addr: &str) -> BrokerDaemon {
        let options = DaemonOptions {
            workers: 2,
            ..DaemonOptions::default()
        };
        start_daemon_with(addr, options)
    }

    fn start_daemon_with(addr: &str, options: DaemonOptions) -> BrokerDaemon {
        let schema = Schema::builder()
            .attribute("x", 0.0, 100.0)
            .bits_per_attribute(8)
            .build()
            .unwrap();
        let net = Arc::new(
            BrokerConfig::new(Topology::line(3).unwrap(), &schema)
                .policy(CoveringPolicy::ExactSfc)
                .build()
                .unwrap(),
        );
        BrokerDaemon::start_with(net, addr, options).unwrap()
    }

    /// A daemon that sheds a pipelined burst beyond its second response, and
    /// a four-event burst for it: two `Deliveries`, then two `Rejected`.
    fn capped_daemon_and_burst() -> (BrokerDaemon, Vec<Event>) {
        let options = DaemonOptions {
            workers: 2,
            max_inflight: 2,
            ..DaemonOptions::default()
        };
        let daemon = start_daemon_with("127.0.0.1:0", options);
        let schema = daemon.network().schema().clone();
        let events = (1..=4).map(|i| Event::new(&schema, vec![f64::from(i) * 10.0]).unwrap());
        (daemon, events.collect())
    }

    #[test]
    fn a_shed_batch_leaves_the_plain_client_in_step() {
        let (daemon, events) = capped_daemon_and_burst();
        let mut client = BrokerClient::connect(daemon.local_addr()).unwrap();
        let failed = client
            .publish_batch(0, &events)
            .expect_err("the in-flight cap sheds the burst's tail");
        assert_eq!(failed.acked.len(), 2);
        assert!(matches!(failed.error, ServiceError::Overloaded { .. }));
        // The fourth response was read off behind the third, so the next
        // request gets its own answer and not the burst's stale `Rejected`.
        assert_eq!(client.publish(0, &events[0]).unwrap(), vec![]);
        assert_eq!(daemon.network().metrics().events_published, 3);
    }

    #[test]
    fn a_shed_batch_is_resumed_without_publishing_twice() {
        let (daemon, events) = capped_daemon_and_burst();
        let mut client = ResilientClient::connect(daemon.local_addr(), fast_policy()).unwrap();
        let deliveries = client.publish_batch(0, &events).unwrap();
        assert_eq!(deliveries, vec![vec![]; 4]);
        // One retry on the same connection resumes at the acked prefix. A
        // retry that read the previous attempt's responses as its own would
        // need a third attempt and publish the tail twice (6 events).
        assert_eq!(daemon.network().metrics().events_published, 4);
        assert_eq!(client.stats().retries, 1);
    }

    #[test]
    fn gives_up_with_a_typed_outcome_when_nobody_listens() {
        // Bind-then-drop yields a port that refuses connections.
        let addr = {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            listener.local_addr().unwrap()
        };
        let policy = RetryPolicy {
            max_attempts: 3,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(2),
            ..RetryPolicy::default()
        };
        let result = ResilientClient::connect(addr, policy);
        let gave_up = result.expect_err("nobody listens: must give up");
        assert_eq!(gave_up.attempts, 3);
        assert!(matches!(gave_up.error, ServiceError::Io(_)));
        assert!(gave_up.to_string().contains("gave up after 3"));
    }

    #[test]
    fn semantic_rejections_are_not_retried() {
        let daemon = start_daemon("127.0.0.1:0");
        let mut client = ResilientClient::connect(daemon.local_addr(), fast_policy()).unwrap();
        let event = Event::new(client.schema(), vec![10.0]).unwrap();
        let gave_up = client
            .publish(99, &event)
            .expect_err("unknown broker is a semantic rejection");
        assert_eq!(gave_up.attempts, 1, "no retries for semantic errors");
        assert!(matches!(gave_up.error, ServiceError::Rejected { .. }));
        assert_eq!(client.stats().retries, 0);
    }

    #[test]
    fn reconnects_and_replays_subscriptions_after_daemon_restart() {
        let first = start_daemon("127.0.0.1:0");
        let addr = first.local_addr();
        let mut daemon = first;
        let mut client = ResilientClient::connect(addr, fast_policy()).unwrap();
        let schema = client.schema().clone();
        let sub = SubscriptionBuilder::new(&schema)
            .range("x", 0.0, 50.0)
            .build(1)
            .unwrap();
        client.subscribe(0, 7, &sub).unwrap();
        let event = Event::new(&schema, vec![25.0]).unwrap();
        assert_eq!(client.publish(2, &event).unwrap(), vec![(0, 7)]);
        assert_eq!(
            client.stats(),
            ClientStats::default(),
            "a healthy daemon needs no retry and no reconnect"
        );

        // The daemon dies and comes back on the same port with an empty
        // network — the client must notice, reconnect, and replay.
        daemon.shutdown();
        drop(daemon);
        let daemon = start_daemon(&addr.to_string());
        assert_eq!(
            client.publish(2, &event).unwrap(),
            vec![(0, 7)],
            "replayed subscription must match again after the restart"
        );
        assert!(client.stats().reconnects >= 1, "{:?}", client.stats());
        assert_eq!(client.tracked_subscriptions(), vec![1]);
        assert_eq!(daemon.network().metrics().subscriptions_registered, 1);
    }

    #[test]
    fn backoff_is_deterministic_bounded_and_exponential() {
        let daemon = start_daemon("127.0.0.1:0");
        let schedule = |seed: u64| {
            let policy = RetryPolicy {
                base_backoff: Duration::from_millis(8),
                max_backoff: Duration::from_millis(100),
                jitter_seed: seed,
                ..RetryPolicy::default()
            };
            let mut client = ResilientClient::connect(daemon.local_addr(), policy).unwrap();
            (2..12)
                .map(|attempt| client.backoff_duration(attempt))
                .collect::<Vec<_>>()
        };
        let a = schedule(1);
        let b = schedule(1);
        assert_eq!(a, b, "same seed, same jitter schedule");
        for (i, d) in a.iter().enumerate() {
            assert!(*d <= Duration::from_millis(100), "capped at max_backoff");
            // Jitter floor is half the exponential value.
            let nominal = Duration::from_millis(8).saturating_mul(1 << i.min(16) as u32);
            assert!(*d >= nominal.min(Duration::from_millis(100)).mul_f64(0.5));
        }
        let c = schedule(2);
        assert_ne!(a, c, "different seed, different jitter");
    }
}
