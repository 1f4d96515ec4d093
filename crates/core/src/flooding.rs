use std::collections::hash_map::{Entry, HashMap};

use acd_subscription::{SubId, Subscription};

use crate::error::CoveringError;
use crate::index::CoveringIndex;
use crate::stats::{IndexStats, QueryOutcome, QueryStats};
use crate::Result;

/// A covering index that stores what it is given and never finds a cover,
/// so every subscription is propagated. It searches nothing, so it checks
/// no schema and counts nothing.
#[derive(Debug, Default)]
pub(crate) struct Flooding(HashMap<SubId, Subscription>);

impl CoveringIndex for Flooding {
    fn insert(&mut self, subscription: &Subscription) -> Result<()> {
        let id = subscription.id();
        let Entry::Vacant(slot) = self.0.entry(id) else {
            return Err(CoveringError::DuplicateSubscription { id });
        };
        slot.insert(subscription.clone());
        Ok(())
    }

    fn remove(&mut self, id: SubId) -> Result<()> {
        let removed = self.0.remove(&id).map(|_| ());
        removed.ok_or(CoveringError::UnknownSubscription { id })
    }

    fn find_covering(&mut self, _: &Subscription) -> Result<QueryOutcome> {
        Ok(QueryOutcome::empty(QueryStats::default()))
    }

    fn len(&self) -> usize {
        self.0.len()
    }

    fn get(&self, id: SubId) -> Option<&Subscription> {
        self.0.get(&id)
    }

    fn ids(&self) -> Box<dyn Iterator<Item = SubId> + '_> {
        Box::new(self.0.keys().copied())
    }

    fn stats(&self) -> IndexStats {
        IndexStats::default()
    }

    fn name(&self) -> &'static str {
        "none"
    }
}
