//! The [`CoveringIndex`] trait: the interface brokers use for covering
//! detection.

use acd_subscription::{SubId, Subscription};

use crate::stats::{IndexStats, QueryOutcome};
use crate::Result;

/// A covering-detection index over subscriptions.
///
/// Implementations differ in how they answer
/// [`find_covering`](CoveringIndex::find_covering):
///
/// * [`crate::LinearScanIndex`] scans every stored subscription — exact but
///   O(n) per query;
/// * [`crate::SfcCoveringIndex`] runs the paper's SFC-based point-dominance
///   query — exhaustive or ε-approximate.
///
/// All implementations must satisfy the safety property the broker relies
/// on: a returned identifier always refers to a stored subscription that
/// truly covers the query — on raw bounds, [`Subscription::covers`], not
/// merely on the quantization grid — so no false positives. Approximate
/// implementations may fail to find an existing covering subscription
/// (false negatives), which only costs bandwidth, never correctness.
pub trait CoveringIndex: std::fmt::Debug + Send + Sync {
    /// Inserts a subscription.
    ///
    /// # Errors
    ///
    /// Returns an error if the subscription's schema does not match the
    /// index, or its identifier is already present.
    fn insert(&mut self, subscription: &Subscription) -> Result<()>;

    /// Removes a subscription by identifier.
    ///
    /// # Errors
    ///
    /// Returns an error if no subscription with that identifier is stored.
    fn remove(&mut self, id: SubId) -> Result<()>;

    /// Searches for a stored subscription that covers `query`.
    ///
    /// The query subscription itself is never reported, even if a copy with
    /// the same identifier is stored.
    ///
    /// # Errors
    ///
    /// Returns an error if the query's schema does not match the index.
    fn find_covering(&mut self, query: &Subscription) -> Result<QueryOutcome>;

    /// Answers a batch of covering queries, returning one outcome per query
    /// **in input order**: one [`find_covering`](CoveringIndex::find_covering)
    /// per query, so the recorded per-query [`QueryOutcome`]s sum to the
    /// index's [`IndexStats`] totals. No implementation overrides it.
    ///
    /// # Errors
    ///
    /// Returns the error of the first query that fails (e.g. a schema that
    /// does not match the index). The queries before it have run and been
    /// recorded; nothing validates the batch up front.
    fn find_covering_batch(&mut self, queries: &[Subscription]) -> Result<Vec<QueryOutcome>> {
        queries.iter().map(|q| self.find_covering(q)).collect()
    }

    /// Number of stored subscriptions.
    fn len(&self) -> usize;

    /// Whether the index is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The subscription stored under `id`, if any.
    fn get(&self, id: SubId) -> Option<&Subscription>;

    /// The identifiers of the stored subscriptions, in no order.
    fn ids(&self) -> Box<dyn Iterator<Item = SubId> + '_>;

    /// Whether a subscription with the given identifier is stored.
    fn contains(&self, id: SubId) -> bool {
        self.get(id).is_some()
    }

    /// Accumulated statistics.
    fn stats(&self) -> IndexStats;

    /// Human readable name of the implementation (for experiment tables).
    fn name(&self) -> &'static str;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trait_is_object_safe() {
        // The broker stores per-interface indexes as trait objects; this
        // function only needs to compile.
        fn _takes_object(_: &mut dyn CoveringIndex) {}
    }

    #[test]
    fn default_is_empty_follows_len() {
        #[derive(Debug)]
        struct Fake(usize);
        impl CoveringIndex for Fake {
            fn insert(&mut self, _: &Subscription) -> Result<()> {
                unimplemented!()
            }
            fn remove(&mut self, _: SubId) -> Result<()> {
                unimplemented!()
            }
            fn find_covering(&mut self, _: &Subscription) -> Result<QueryOutcome> {
                unimplemented!()
            }
            fn len(&self) -> usize {
                self.0
            }
            fn get(&self, _: SubId) -> Option<&Subscription> {
                None
            }
            fn ids(&self) -> Box<dyn Iterator<Item = SubId> + '_> {
                Box::new(std::iter::empty())
            }
            fn stats(&self) -> IndexStats {
                IndexStats::default()
            }
            fn name(&self) -> &'static str {
                "fake"
            }
        }
        assert!(Fake(0).is_empty());
        assert!(!Fake(3).is_empty());
    }
}
