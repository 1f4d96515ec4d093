//! The churn workload: a mixed, reproducible stream of subscribe,
//! unsubscribe and publish operations.
//!
//! Everything before this module generated insert-once/query-many
//! populations; a production broker instead sees *churn* — subscriptions
//! arriving and leaving continuously while events flow. [`ChurnWorkload`]
//! draws that stream: operation kinds follow configurable weights,
//! subscription and event content follows the embedded [`WorkloadConfig`]
//! (so Zipf-skewed interest produces correspondingly skewed churn), and
//! unsubscriptions pick a uniformly random live subscription. The same seed
//! always reproduces the same operation stream.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use acd_subscription::{Event, Schema, SubId, Subscription};

use crate::config::WorkloadConfig;
use crate::error::WorkloadError;
use crate::events::EventWorkload;
use crate::subscriptions::SubscriptionWorkload;
use crate::Result;

/// Configuration of a churn stream: the content model plus the operation
/// mix.
#[derive(Debug, Clone, PartialEq)]
pub struct ChurnConfig {
    /// Content model (distributions, schema shape, seed) shared by the
    /// subscription and event generators.
    pub workload: WorkloadConfig,
    /// Relative weight of subscribe operations.
    pub subscribe_weight: u32,
    /// Relative weight of unsubscribe operations (fall back to subscribes
    /// while no subscription is live).
    pub unsubscribe_weight: u32,
    /// Relative weight of publish operations.
    pub publish_weight: u32,
    /// Number of unconditional subscribes emitted before the mixed stream
    /// starts, so unsubscribe and publish operations have a live population
    /// to work against.
    pub warmup_subscriptions: usize,
}

impl ChurnConfig {
    /// A balanced mix over the given content model: slightly more
    /// subscribes than unsubscribes (the live set drifts upward, as a
    /// growing deployment's would) and a steady publish stream.
    pub fn balanced(workload: WorkloadConfig) -> Self {
        ChurnConfig {
            workload,
            subscribe_weight: 45,
            unsubscribe_weight: 35,
            publish_weight: 20,
            warmup_subscriptions: 64,
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::InvalidConfig`] if the content model is
    /// invalid or every operation weight is zero.
    pub fn validate(&self) -> Result<()> {
        self.workload.validate()?;
        if self.subscribe_weight == 0 && self.unsubscribe_weight == 0 && self.publish_weight == 0 {
            return Err(WorkloadError::InvalidConfig {
                reason: "at least one churn operation weight must be positive".into(),
            });
        }
        Ok(())
    }
}

/// One operation of a churn stream.
#[derive(Debug, Clone)]
pub enum ChurnOp {
    /// Register a new subscription.
    Subscribe(Subscription),
    /// Unregister the subscription with this identifier (always one that an
    /// earlier [`ChurnOp::Subscribe`] of the same stream introduced and that
    /// no earlier unsubscribe removed).
    Unsubscribe(SubId),
    /// Publish an event.
    Publish(Event),
}

/// A reproducible stream of mixed subscribe/unsubscribe/publish operations
/// (see the [module docs](self)).
///
/// # Example
///
/// ```
/// use acd_workload::{ChurnConfig, ChurnOp, ChurnWorkload, WorkloadConfig};
///
/// # fn main() -> Result<(), acd_workload::WorkloadError> {
/// let config = ChurnConfig::balanced(WorkloadConfig::builder().seed(7).build()?);
/// let mut churn = ChurnWorkload::new(&config)?;
/// let ops = churn.take(100);
/// assert_eq!(ops.len(), 100);
/// assert!(ops.iter().any(|op| matches!(op, ChurnOp::Subscribe(_))));
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct ChurnWorkload {
    config: ChurnConfig,
    subscriptions: SubscriptionWorkload,
    events: EventWorkload,
    /// Operation-kind stream, independent of the content streams (offset
    /// seed) so the mix can change without re-rolling the content.
    rng: StdRng,
    live: Vec<SubId>,
    warmup_left: usize,
}

impl ChurnWorkload {
    /// Creates a generator for `config`.
    ///
    /// # Errors
    ///
    /// Returns an error if the configuration is invalid.
    pub fn new(config: &ChurnConfig) -> Result<Self> {
        config.validate()?;
        let subscriptions = SubscriptionWorkload::new(&config.workload)?;
        let events = EventWorkload::with_schema(&config.workload, subscriptions.schema())?;
        let rng = StdRng::seed_from_u64(config.workload.seed.wrapping_add(0x517cc1b727220a95));
        Ok(ChurnWorkload {
            config: config.clone(),
            subscriptions,
            events,
            rng,
            live: Vec::new(),
            warmup_left: config.warmup_subscriptions,
        })
    }

    /// The schema all generated subscriptions and events follow.
    pub fn schema(&self) -> &Schema {
        self.subscriptions.schema()
    }

    /// The configuration this stream follows.
    pub fn config(&self) -> &ChurnConfig {
        &self.config
    }

    /// Identifiers currently live in the stream (subscribed and not yet
    /// unsubscribed), in no particular order.
    pub fn live(&self) -> &[SubId] {
        &self.live
    }

    /// Shifts the centers of every subsequently generated subscription by
    /// `fraction` of the domain (see
    /// [`SubscriptionWorkload::set_center_offset`]): the churn stream's hot
    /// region drifts mid-stream, so the subscriptions that cover newcomers
    /// age out of the live window.
    pub fn set_center_offset(&mut self, fraction: f64) {
        self.subscriptions.set_center_offset(fraction);
    }

    fn subscribe(&mut self) -> ChurnOp {
        let subscription = self.subscriptions.next_subscription();
        self.live.push(subscription.id());
        ChurnOp::Subscribe(subscription)
    }

    /// Draws the next operation.
    pub fn next_op(&mut self) -> ChurnOp {
        if self.warmup_left > 0 {
            self.warmup_left -= 1;
            return self.subscribe();
        }
        let weights = [
            self.config.subscribe_weight,
            self.config.unsubscribe_weight,
            self.config.publish_weight,
        ];
        let total: u32 = weights.iter().sum();
        let mut roll = (self.rng.gen_range(0..total as usize)) as u32;
        if roll < weights[0] {
            return self.subscribe();
        }
        roll -= weights[0];
        if roll < weights[1] {
            if self.live.is_empty() {
                // Nothing to remove yet: keep the stream flowing.
                return self.subscribe();
            }
            let victim = self.rng.gen_range(0..self.live.len());
            let id = self.live.swap_remove(victim);
            return ChurnOp::Unsubscribe(id);
        }
        ChurnOp::Publish(self.events.next_event())
    }

    /// Draws a batch of `n` operations.
    pub fn take(&mut self, n: usize) -> Vec<ChurnOp> {
        (0..n).map(|_| self.next_op()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CenterDistribution;

    fn config() -> ChurnConfig {
        ChurnConfig::balanced(
            WorkloadConfig::builder()
                .attributes(2)
                .bits_per_attribute(8)
                .center_distribution(CenterDistribution::Zipf { exponent: 1.1 })
                .seed(5)
                .build()
                .unwrap(),
        )
    }

    #[test]
    fn streams_are_reproducible_and_well_formed() {
        let c = config();
        let a = ChurnWorkload::new(&c).unwrap().take(500);
        let b = ChurnWorkload::new(&c).unwrap().take(500);
        assert_eq!(a.len(), b.len());
        let mut live = std::collections::HashSet::new();
        for (x, y) in a.iter().zip(&b) {
            match (x, y) {
                (ChurnOp::Subscribe(s1), ChurnOp::Subscribe(s2)) => {
                    assert_eq!(s1.id(), s2.id());
                    assert_eq!(s1.grid_bounds(), s2.grid_bounds());
                    // Fresh identifier, never seen before.
                    assert!(live.insert(s1.id()));
                }
                (ChurnOp::Unsubscribe(i1), ChurnOp::Unsubscribe(i2)) => {
                    assert_eq!(i1, i2);
                    // Always removes a currently-live subscription.
                    assert!(live.remove(i1));
                }
                (ChurnOp::Publish(e1), ChurnOp::Publish(e2)) => {
                    assert_eq!(e1.values(), e2.values());
                }
                other => panic!("streams diverged: {other:?}"),
            }
        }
    }

    #[test]
    fn warmup_emits_only_subscribes_and_mix_contains_all_kinds() {
        let c = config();
        let mut churn = ChurnWorkload::new(&c).unwrap();
        let warmup = churn.take(c.warmup_subscriptions);
        assert!(warmup.iter().all(|op| matches!(op, ChurnOp::Subscribe(_))));
        assert_eq!(churn.live().len(), c.warmup_subscriptions);
        let mixed = churn.take(600);
        let subs = mixed
            .iter()
            .filter(|op| matches!(op, ChurnOp::Subscribe(_)))
            .count();
        let unsubs = mixed
            .iter()
            .filter(|op| matches!(op, ChurnOp::Unsubscribe(_)))
            .count();
        let pubs = mixed
            .iter()
            .filter(|op| matches!(op, ChurnOp::Publish(_)))
            .count();
        assert!(subs > 0 && unsubs > 0 && pubs > 0, "{subs}/{unsubs}/{pubs}");
        // The balanced mix keeps the live set near warmup + drift, far from
        // either extinction or one-sided growth.
        assert_eq!(churn.live().len(), c.warmup_subscriptions + subs - unsubs);
    }

    #[test]
    fn rejects_all_zero_weights() {
        let mut c = config();
        c.subscribe_weight = 0;
        c.unsubscribe_weight = 0;
        c.publish_weight = 0;
        assert!(ChurnWorkload::new(&c).is_err());
    }

    #[test]
    fn unsubscribe_only_mix_falls_back_to_subscribes_when_empty() {
        let mut c = config();
        c.warmup_subscriptions = 0;
        c.subscribe_weight = 0;
        c.unsubscribe_weight = 1;
        c.publish_weight = 0;
        let mut churn = ChurnWorkload::new(&c).unwrap();
        // First op has nothing to remove — must fall back to a subscribe.
        assert!(matches!(churn.next_op(), ChurnOp::Subscribe(_)));
        assert!(matches!(churn.next_op(), ChurnOp::Unsubscribe(_)));
        assert!(churn.live().is_empty());
    }
}
