//! The exhaustive linear-scan baseline.

use std::collections::HashMap;

use acd_subscription::{Schema, SubId, Subscription};

use crate::error::CoveringError;
use crate::index::CoveringIndex;
use crate::stats::{IndexStats, QueryOutcome, QueryStats};
use crate::Result;

/// A covering index that stores subscriptions in a flat list and scans all of
/// them on every query.
///
/// This is the "no index" baseline every deployed system starts from: always
/// exact, trivial to maintain, but each covering check costs Θ(n)
/// subscription comparisons. The experiment harness uses it both as the
/// ground truth for detection-quality measurements and as the cost baseline
/// the SFC index is compared against.
///
/// # Example
///
/// ```
/// use acd_covering::{CoveringIndex, LinearScanIndex};
/// use acd_subscription::{Schema, SubscriptionBuilder};
///
/// # fn main() -> Result<(), acd_covering::CoveringError> {
/// let schema = Schema::builder().attribute("x", 0.0, 100.0).build()?;
/// let mut index = LinearScanIndex::new(&schema);
/// index.insert(&SubscriptionBuilder::new(&schema).range("x", 0.0, 90.0).build(1)?)?;
/// let narrow = SubscriptionBuilder::new(&schema).range("x", 10.0, 20.0).build(2)?;
/// assert_eq!(index.find_covering(&narrow)?.covering, Some(1));
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct LinearScanIndex {
    schema: Schema,
    subscriptions: Vec<Subscription>,
    by_id: HashMap<SubId, usize>,
    stats: IndexStats,
}

impl LinearScanIndex {
    /// Creates an empty index for subscriptions over `schema`.
    pub fn new(schema: &Schema) -> Self {
        LinearScanIndex {
            schema: schema.clone(),
            subscriptions: Vec::new(),
            by_id: HashMap::new(),
            stats: IndexStats::default(),
        }
    }

    fn check_schema(&self, subscription: &Subscription) -> Result<()> {
        if subscription.schema() != &self.schema {
            return Err(CoveringError::SchemaMismatch);
        }
        Ok(())
    }

    /// Iterates over the stored subscriptions in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &Subscription> {
        self.subscriptions.iter()
    }
}

impl CoveringIndex for LinearScanIndex {
    fn insert(&mut self, subscription: &Subscription) -> Result<()> {
        self.check_schema(subscription)?;
        if self.by_id.contains_key(&subscription.id()) {
            return Err(CoveringError::DuplicateSubscription {
                id: subscription.id(),
            });
        }
        self.by_id
            .insert(subscription.id(), self.subscriptions.len());
        self.subscriptions.push(subscription.clone());
        self.stats.inserts += 1;
        Ok(())
    }

    fn remove(&mut self, id: SubId) -> Result<()> {
        let idx = self
            .by_id
            .remove(&id)
            .ok_or(CoveringError::UnknownSubscription { id })?;
        self.subscriptions.swap_remove(idx);
        if let Some(moved) = self.subscriptions.get(idx) {
            // Fix up the index of the element that was swapped into `idx`.
            self.by_id.insert(moved.id(), idx);
        }
        self.stats.removes += 1;
        Ok(())
    }

    fn find_covering(&mut self, query: &Subscription) -> Result<QueryOutcome> {
        self.check_schema(query)?;
        let mut stats = QueryStats {
            volume_fraction_searched: 1.0,
            ..QueryStats::default()
        };
        let mut found = None;
        for s in &self.subscriptions {
            stats.subscriptions_compared += 1;
            if s.id() != query.id() && s.covers(query) {
                found = Some(s.id());
                break;
            }
        }
        let outcome = match found {
            Some(id) => QueryOutcome::found(id, stats),
            None => QueryOutcome::empty(stats),
        };
        self.stats.record_query(&outcome);
        Ok(outcome)
    }

    fn len(&self) -> usize {
        self.subscriptions.len()
    }

    fn get(&self, id: SubId) -> Option<&Subscription> {
        self.subscriptions.get(*self.by_id.get(&id)?)
    }

    fn ids(&self) -> Box<dyn Iterator<Item = SubId> + '_> {
        Box::new(self.by_id.keys().copied())
    }

    fn stats(&self) -> IndexStats {
        self.stats
    }

    fn name(&self) -> &'static str {
        "linear-scan"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acd_subscription::SubscriptionBuilder;

    fn schema() -> Schema {
        Schema::builder()
            .attribute("a", 0.0, 100.0)
            .attribute("b", 0.0, 100.0)
            .bits_per_attribute(8)
            .build()
            .unwrap()
    }

    fn sub(schema: &Schema, id: SubId, a: (f64, f64), b: (f64, f64)) -> Subscription {
        SubscriptionBuilder::new(schema)
            .range("a", a.0, a.1)
            .range("b", b.0, b.1)
            .build(id)
            .unwrap()
    }

    #[test]
    fn insert_query_remove_cycle() {
        let s = schema();
        let mut idx = LinearScanIndex::new(&s);
        let wide = sub(&s, 1, (0.0, 100.0), (0.0, 100.0));
        let narrow = sub(&s, 2, (10.0, 20.0), (10.0, 20.0));
        idx.insert(&wide).unwrap();
        assert_eq!(idx.len(), 1);
        assert!(idx.contains(1));
        let outcome = idx.find_covering(&narrow).unwrap();
        assert_eq!(outcome.covering, Some(1));
        assert_eq!(outcome.stats.subscriptions_compared, 1);
        idx.remove(1).unwrap();
        assert!(idx.is_empty());
        assert!(!idx.find_covering(&narrow).unwrap().is_covered());
        assert!(matches!(
            idx.remove(1),
            Err(CoveringError::UnknownSubscription { id: 1 })
        ));
    }

    #[test]
    fn duplicate_ids_and_schema_mismatch_are_rejected() {
        let s = schema();
        let other = Schema::builder().attribute("a", 0.0, 1.0).build().unwrap();
        let mut idx = LinearScanIndex::new(&s);
        let a = sub(&s, 1, (0.0, 10.0), (0.0, 10.0));
        idx.insert(&a).unwrap();
        assert!(matches!(
            idx.insert(&a),
            Err(CoveringError::DuplicateSubscription { id: 1 })
        ));
        let foreign = SubscriptionBuilder::new(&other).build(9).unwrap();
        assert!(matches!(
            idx.insert(&foreign),
            Err(CoveringError::SchemaMismatch)
        ));
        assert!(matches!(
            idx.find_covering(&foreign),
            Err(CoveringError::SchemaMismatch)
        ));
    }

    #[test]
    fn query_never_reports_the_query_itself() {
        let s = schema();
        let mut idx = LinearScanIndex::new(&s);
        let a = sub(&s, 1, (0.0, 50.0), (0.0, 50.0));
        idx.insert(&a).unwrap();
        // Querying with the same id must not match the stored copy.
        let same_id = sub(&s, 1, (10.0, 20.0), (10.0, 20.0));
        assert!(!idx.find_covering(&same_id).unwrap().is_covered());
    }

    #[test]
    fn swap_remove_keeps_id_map_consistent() {
        let s = schema();
        let mut idx = LinearScanIndex::new(&s);
        for id in 1..=5u64 {
            idx.insert(&sub(&s, id, (0.0, id as f64 * 10.0), (0.0, 50.0)))
                .unwrap();
        }
        idx.remove(2).unwrap();
        idx.remove(5).unwrap();
        assert_eq!(idx.len(), 3);
        for id in [1u64, 3, 4] {
            assert!(idx.contains(id), "id {id} must survive unrelated removals");
        }
        assert!(!idx.contains(2));
        // Queries still work against the survivors.
        let narrow = sub(&s, 9, (0.0, 5.0), (0.0, 5.0));
        assert!(idx.find_covering(&narrow).unwrap().is_covered());
    }

    #[test]
    fn stats_accumulate() {
        let s = schema();
        let mut idx = LinearScanIndex::new(&s);
        idx.insert(&sub(&s, 1, (0.0, 100.0), (0.0, 100.0))).unwrap();
        idx.find_covering(&sub(&s, 2, (1.0, 2.0), (1.0, 2.0)))
            .unwrap();
        idx.find_covering(&sub(&s, 3, (1.0, 2.0), (1.0, 2.0)))
            .unwrap();
        let st = idx.stats();
        assert_eq!(st.inserts, 1);
        assert_eq!(st.queries, 2);
        assert_eq!(st.queries_covered, 2);
        assert_eq!(st.covered_fraction(), 1.0);
        assert_eq!(idx.name(), "linear-scan");
    }
}
