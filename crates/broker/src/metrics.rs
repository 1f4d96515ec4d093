//! Network-wide metrics collected by the broker overlay.

use std::sync::atomic::{AtomicU64, Ordering};

/// Counters describing one simulation run.
///
/// These are exactly the quantities the paper's motivation attributes to
/// subscription covering: how many subscription messages crossed overlay
/// links, how many routing-table entries exist across the network, how much
/// covering-detection work the brokers did, and — unchanged by any covering
/// policy — how many events were delivered to subscribers.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NetworkMetrics {
    /// Subscriptions registered by clients.
    pub subscriptions_registered: u64,
    /// Subscription messages sent across overlay links.
    pub subscription_messages: u64,
    /// Subscription forwards suppressed because a covering subscription had
    /// already been sent on that link.
    pub subscriptions_suppressed: u64,
    /// Subscriptions unregistered by clients.
    pub unsubscriptions: u64,
    /// Unsubscription (retraction) messages sent across overlay links.
    pub unsubscription_messages: u64,
    /// Total routing-table entries across all brokers and interfaces.
    pub routing_table_entries: u64,
    /// Covering queries issued while propagating subscriptions.
    pub covering_queries: u64,
    /// Runs probed by SFC covering queries (0 for linear or no covering).
    pub covering_runs_probed: u64,
    /// Subscription comparisons performed by linear-scan covering queries.
    pub covering_comparisons: u64,
    /// Events published by clients.
    pub events_published: u64,
    /// Event messages sent across overlay links.
    pub event_messages: u64,
    /// Events delivered to local subscribers: one per `(broker, client)`
    /// with at least one matching subscription, however many of the
    /// client's subscriptions match.
    pub deliveries: u64,
    /// Connections the daemon refused at the accept gate (connection cap)
    /// or requests it declined to execute (per-connection in-flight cap).
    pub connections_rejected: u64,
    /// Connections the daemon evicted: idle connections the reaper closed.
    /// Each eviction retracts the session's subscriptions exactly like
    /// `unsubscribe`.
    pub connections_evicted: u64,
    /// Request frames that failed structural validation (bad magic or
    /// length, checksum mismatch, truncation, foreign version).
    pub frames_corrupt: u64,
    /// Idempotent retries the daemon absorbed: a `Resubscribe` that found
    /// the id already live, or a `Retract` of an id already gone.
    pub client_retries: u64,
    /// Session takeovers: a `Resubscribe` that moved a live registration
    /// from one connection to another — the signature of a client
    /// reconnecting and replaying its subscription set.
    pub client_reconnects: u64,
}

impl NetworkMetrics {
    /// Mean number of subscription messages per registered subscription.
    pub fn messages_per_subscription(&self) -> f64 {
        if self.subscriptions_registered == 0 {
            0.0
        } else {
            self.subscription_messages as f64 / self.subscriptions_registered as f64
        }
    }

    /// Fraction of subscription forwards that covering suppressed.
    pub fn suppression_ratio(&self) -> f64 {
        let attempted = self.subscription_messages + self.subscriptions_suppressed;
        if attempted == 0 {
            0.0
        } else {
            self.subscriptions_suppressed as f64 / attempted as f64
        }
    }
}

/// Interior-mutable counters behind [`NetworkMetrics`] in the concurrent
/// network: independent relaxed atomics (no cross-counter invariant is ever
/// read back mid-operation), snapshotted on demand. `routing_table_entries`
/// has no cell here — it is recomputed from broker state at snapshot time.
#[derive(Debug, Default)]
pub(crate) struct MetricCounters {
    pub subscriptions_registered: AtomicU64,
    pub subscription_messages: AtomicU64,
    pub subscriptions_suppressed: AtomicU64,
    pub unsubscriptions: AtomicU64,
    pub unsubscription_messages: AtomicU64,
    pub covering_queries: AtomicU64,
    pub covering_runs_probed: AtomicU64,
    pub covering_comparisons: AtomicU64,
    pub events_published: AtomicU64,
    pub event_messages: AtomicU64,
    pub deliveries: AtomicU64,
    pub connections_rejected: AtomicU64,
    pub connections_evicted: AtomicU64,
    pub frames_corrupt: AtomicU64,
    pub client_retries: AtomicU64,
    pub client_reconnects: AtomicU64,
}

impl MetricCounters {
    /// A point-in-time copy of every counter (`routing_table_entries` is
    /// left at 0 for the caller to fill in from live broker state).
    pub fn snapshot(&self) -> NetworkMetrics {
        let get = |c: &AtomicU64| c.load(Ordering::Relaxed);
        NetworkMetrics {
            subscriptions_registered: get(&self.subscriptions_registered),
            subscription_messages: get(&self.subscription_messages),
            subscriptions_suppressed: get(&self.subscriptions_suppressed),
            unsubscriptions: get(&self.unsubscriptions),
            unsubscription_messages: get(&self.unsubscription_messages),
            routing_table_entries: 0,
            covering_queries: get(&self.covering_queries),
            covering_runs_probed: get(&self.covering_runs_probed),
            covering_comparisons: get(&self.covering_comparisons),
            events_published: get(&self.events_published),
            event_messages: get(&self.event_messages),
            deliveries: get(&self.deliveries),
            connections_rejected: get(&self.connections_rejected),
            connections_evicted: get(&self.connections_evicted),
            frames_corrupt: get(&self.frames_corrupt),
            client_retries: get(&self.client_retries),
            client_reconnects: get(&self.client_reconnects),
        }
    }

    /// Relaxed add, the only write mode the counters need.
    #[inline]
    pub fn add(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }

    /// Relaxed increment.
    #[inline]
    pub fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratios_handle_zero_denominators() {
        let m = NetworkMetrics::default();
        assert_eq!(m.messages_per_subscription(), 0.0);
        assert_eq!(m.suppression_ratio(), 0.0);
    }

    #[test]
    fn ratios_compute_expected_values() {
        let m = NetworkMetrics {
            subscriptions_registered: 10,
            subscription_messages: 40,
            subscriptions_suppressed: 10,
            events_published: 5,
            event_messages: 20,
            ..NetworkMetrics::default()
        };
        assert_eq!(m.messages_per_subscription(), 4.0);
        assert_eq!(m.suppression_ratio(), 0.2);
    }
}
