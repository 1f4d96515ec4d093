//! What a broker remembers about the link to one neighbor — its two
//! decisions, [`Link::offer`] and [`Link::retract`], are what an overlay
//! walk step makes on every onward link — and the held-back structure the
//! link shares with the broker's local tables.

use std::collections::hash_map::Entry;
use std::collections::HashMap;

use acd_covering::{CoveringIndex, CoveringPolicy, QueryOutcome};
use acd_subscription::{Schema, SubId, Subscription};

use crate::broker::{BrokerId, MatchTable};
use crate::network::{Registry, Violation};
use crate::Result;

/// Subscriptions held back behind a *witness*, a subscription that covers
/// each of them: on a link, a sent subscription the covering query named;
/// in a broker's local tables, an in-table subscription of the same client.
/// The two maps are two views of one relation (`witness_of[s] = w` exactly
/// when `s` is in `lists[w]`, once; no list is empty), and only the methods
/// below change them, so they stay that way (`witness_of` is crate-visible
/// only for the audit's tests to break the relation).
#[derive(Debug, Default)]
pub(crate) struct Held {
    /// Witness id → the subscriptions held back behind it, in arrival order,
    /// so that taking the witness away offers them again in that order.
    lists: HashMap<SubId, Vec<Subscription>>,
    /// Held-back id → its witness: the dedup check, and the way from a
    /// held-back subscription to the one list it sits in.
    pub(crate) witness_of: HashMap<SubId, SubId>,
}

impl Held {
    /// Files `subscription` under `witness`, unless it is held already. A
    /// new list starts with room for one: most witnesses hold one, and the
    /// default first allocation has room for four.
    pub(crate) fn hold(&mut self, witness: SubId, subscription: Subscription) {
        if let Entry::Vacant(slot) = self.witness_of.entry(subscription.id()) {
            slot.insert(witness);
            let list = self
                .lists
                .entry(witness)
                .or_insert_with(|| Vec::with_capacity(1));
            list.push(subscription);
        }
    }

    /// The witness `id` is held back behind, if it is held.
    pub(crate) fn witness(&self, id: SubId) -> Option<SubId> {
        self.witness_of.get(&id).copied()
    }

    /// Takes `id` out of its witness's list, returning its handle (`None`
    /// when it is not held). The scan starts at the newest entry, where
    /// churn's short-lived subscriptions are, and the rest keep their order.
    pub(crate) fn release(&mut self, id: SubId) -> Option<Subscription> {
        let witness = self.witness_of.remove(&id)?;
        let Entry::Occupied(mut list) = self.lists.entry(witness) else {
            return None;
        };
        let at = list.get().iter().rposition(|s| s.id() == id)?;
        let released = list.get_mut().remove(at);
        if list.get().is_empty() {
            list.remove();
        }
        Some(released)
    }

    /// Takes the whole list `witness` holds back, in arrival order (empty,
    /// and allocation-free, when it holds nothing).
    pub(crate) fn take(&mut self, witness: SubId) -> Vec<Subscription> {
        let list = self.lists.remove(&witness).unwrap_or_default();
        for held in &list {
            self.witness_of.remove(&held.id());
        }
        list
    }

    /// Number of held-back subscriptions.
    pub(crate) fn len(&self) -> usize {
        self.witness_of.len()
    }

    /// Every `(witness, held-back subscription)` pair, list by list.
    pub(crate) fn entries(&self) -> impl Iterator<Item = (SubId, &Subscription)> {
        let lists = self.lists.iter();
        lists.flat_map(|(&witness, list)| list.iter().map(move |held| (witness, held)))
    }

    /// The ids the two maps disagree on (listed twice, mirrored to another
    /// list or not at all, or mirrored only) and the witnesses whose list is
    /// empty: none while only the methods above have changed them.
    pub(crate) fn disagreements(&self) -> Vec<SubId> {
        let mut mirror = self.witness_of.clone();
        let mut odd = Vec::new();
        for (&witness, list) in &self.lists {
            if list.is_empty() {
                odd.push(witness);
            }
            let unmirrored = list.iter().map(Subscription::id);
            odd.extend(unmirrored.filter(|id| mirror.remove(id) != Some(witness)));
        }
        odd.extend(mirror.into_keys());
        odd
    }
}

/// Everything a broker remembers about the link to one neighbor: what
/// arrived over it, what went out over it, and what covering held back —
/// each held-back subscription under its *witness*, the sent subscription
/// the covering query named as its cover.
///
/// Invariant: `held` is over live subscriptions, none of them in `sent`,
/// and **every witness is in `sent` and covers what it holds back** on raw
/// bounds ([`Subscription::covers`]), so it matches
/// every event the held-back one does. Nothing sweeps `held` to keep that
/// true, because the two ways in and the two ways out already do. A
/// subscription enters only in [`offer`](Self::offer), at a broker it
/// reached, when the sent index names a cover for it — and the index
/// stores exactly what was sent and only names stored, truly covering
/// subscriptions (the [`CoveringIndex`] safety property, under every
/// policy). It leaves only in
/// [`retract`](Self::retract): when its witness is retracted, the
/// witness's whole list is offered again, in arrival order, and each entry
/// ends sent or behind a new witness; when it is itself unsubscribed, the
/// walk — which visits every broker the subscription reached, because a
/// sent record is removed only by its own subscription's retraction —
/// drops its entry. Retracting the witness is the only event that can
/// falsify the bold clause, so it is the only one that re-offers anything:
/// a subscription whose *other* covers come and go needs nothing.
/// [`crate::BrokerNetwork::audit`] checks all of it.
#[derive(Debug)]
pub(crate) struct Link {
    /// Routing table: the bounds of the subscriptions received from the
    /// neighbor, deciding whether an event is forwarded to it.
    pub(crate) routing: MatchTable,
    /// Covering index over the subscriptions sent to the neighbor — the
    /// authoritative record unsubscription follows, and the neighbor's
    /// routing entries for it. Under [`CoveringPolicy::None`] it never
    /// names a cover.
    pub(crate) sent: Box<dyn CoveringIndex>,
    /// The subscriptions covering held back, each under the sent one the
    /// index named, so that retracting a witness re-advertises exactly
    /// what it masked.
    pub(crate) held: Held,
}

impl Link {
    /// An empty link whose sent index follows `policy` (an error if the
    /// policy cannot build its index).
    pub(crate) fn new(schema: &Schema, policy: CoveringPolicy) -> Result<Link> {
        Ok(Link {
            routing: MatchTable::new(schema),
            sent: policy.build_index(schema)?,
            held: Held::default(),
        })
    }

    /// Asks the sent index for a cover of `subscription` and records the
    /// answer: held back behind the cover it names, else sent.
    pub(crate) fn offer(&mut self, subscription: &Subscription) -> Result<QueryOutcome> {
        let outcome = self.sent.find_covering(subscription)?;
        match outcome.covering {
            Some(witness) => self.held.hold(witness, subscription.clone()),
            None => self.sent.insert(subscription)?,
        }
        Ok(outcome)
    }

    /// Takes `id` off the link. `Some` when it had been sent: the list it
    /// was the witness of (nothing else: the rest still have theirs), each
    /// offered again in arrival order, with its answer — empty, with no
    /// covering query and no allocation, in the common case. `None` when it
    /// was never sent, where at most its own held-back entry had to go.
    pub(crate) fn retract(
        &mut self,
        id: SubId,
    ) -> Result<Option<Vec<(Subscription, QueryOutcome)>>> {
        let Some(witness) = self.sent.get(id) else {
            self.held.release(id);
            return Ok(None);
        };
        let masked = self.held.take(id);
        debug_assert!(
            masked.iter().all(|s| witness.covers(s)),
            "witness must cover"
        );
        self.sent.remove(id)?;
        let mut offered = Vec::with_capacity(masked.len());
        for candidate in masked {
            let outcome = self.offer(&candidate)?;
            offered.push((candidate, outcome));
        }
        Ok(Some(offered))
    }

    /// The held-back half of [`crate::BrokerNetwork::audit`] on `broker`'s
    /// link to `neighbor`, against the registry's copy: the two maps agree,
    /// and every entry is live and unsent behind a sent witness covering it.
    pub(crate) fn audit(
        &self,
        broker: BrokerId,
        neighbor: BrokerId,
        registered: &Registry,
        found: &mut Vec<Violation>,
    ) {
        let odd = self.held.disagreements().into_iter();
        found.extend(odd.map(|id| Violation::Unmirrored(broker, Some(neighbor), id)));
        for (witness, held) in self.held.entries() {
            let id = held.id();
            if !registered.contains_key(&id) {
                found.push(Violation::DeadId(broker, neighbor, id));
            }
            found.push(match self.sent.get(witness) {
                _ if self.sent.contains(id) => Violation::SentAndHeld(broker, neighbor, id),
                None => Violation::UnsentWitness(broker, neighbor, witness, id),
                Some(cover) if !cover.covers(held) => {
                    Violation::UncoveringWitness(broker, Some(neighbor), witness, id)
                }
                Some(_) => continue,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::broker::tests::{schema, sub};
    use acd_covering::QueryStats;

    #[test]
    fn covering_policy_suppresses_covered_forwards() {
        let s = schema();
        let mut link = Link::new(&s, CoveringPolicy::ExactSfc).unwrap();
        let wide = sub(&s, 1, (0.0, 100.0), (0.0, 100.0));
        let narrow = sub(&s, 2, (10.0, 20.0), (10.0, 20.0));
        assert!(!link.offer(&wide).unwrap().is_covered());
        let d2 = link.offer(&narrow).unwrap();
        assert!(d2.is_covered(), "narrow subscription must be suppressed");
        assert_eq!(link.sent.len(), 1);
        assert_eq!(queries(&link), 2);
    }

    #[test]
    fn no_covering_policy_always_forwards() {
        let s = schema();
        let mut link = Link::new(&s, CoveringPolicy::None).unwrap();
        let mut unused = Link::new(&s, CoveringPolicy::None).unwrap();
        let wide = sub(&s, 1, (0.0, 100.0), (0.0, 100.0));
        let narrow = sub(&s, 2, (10.0, 20.0), (10.0, 20.0));
        for subscription in [&wide, &narrow] {
            let d = link.offer(subscription).unwrap();
            assert!(!d.is_covered());
            assert_eq!(d.stats, QueryStats::default());
        }
        assert_eq!((link.sent.len(), unused.sent.len()), (2, 0));
        assert_eq!(queries(&link), 0);
        // Nothing is ever held back, so a retraction has nothing to offer
        // again and neither map is ever populated.
        assert_eq!(link.retract(wide.id()).unwrap(), Some(vec![]));
        assert_eq!(unused.retract(wide.id()).unwrap(), None);
        assert!(held_back(&link).is_empty() && held_back(&unused).is_empty());
    }

    /// The `(id, witness)` pairs held back on `link`: witnesses ascending,
    /// arrival order within a witness.
    fn held_back(link: &Link) -> Vec<(SubId, SubId)> {
        assert_eq!(link.held.disagreements(), []);
        let mut pairs: Vec<_> = link.held.entries().map(|(w, s)| (s.id(), w)).collect();
        pairs.sort_by_key(|&(_, witness)| witness);
        pairs
    }

    /// Covering queries `link` has asked its sent index.
    fn queries(link: &Link) -> u64 {
        link.sent.stats().queries
    }

    #[test]
    fn only_the_witness_retraction_offers_again() {
        let s = schema();
        // Two incomparable covers of `narrow`, so both are sent and the
        // index is free to name either as the witness.
        let wide = [
            sub(&s, 1, (0.0, 80.0), (0.0, 100.0)),
            sub(&s, 2, (20.0, 100.0), (0.0, 100.0)),
        ];
        let narrow = sub(&s, 3, (30.0, 40.0), (30.0, 40.0));
        for policy in [CoveringPolicy::ExactSfc, CoveringPolicy::ExactLinear] {
            let mut link = Link::new(&s, policy).unwrap();
            assert!(!link.offer(&wide[0]).unwrap().is_covered());
            assert!(!link.offer(&wide[1]).unwrap().is_covered());
            assert!(link.offer(&narrow).unwrap().is_covered());
            let [(3, witness)] = held_back(&link)[..] else {
                panic!("narrow is held back once: {:?}", held_back(&link));
            };
            let (witness, other) = match witness {
                1 => (&wide[0], &wide[1]),
                2 => (&wide[1], &wide[0]),
                _ => panic!("witness {witness} is not a cover"),
            };

            // The other cover goes: narrow still has its witness, so nothing
            // is offered again and the index is asked nothing.
            let asked = queries(&link);
            assert_eq!(link.retract(other.id()).unwrap(), Some(vec![]));
            assert_eq!(queries(&link), asked, "policy {}", policy.label());
            assert_eq!(held_back(&link), [(3, witness.id())]);

            // With the other cover back, the witness goes: narrow is offered
            // again and ends held back behind the survivor.
            assert!(!link.offer(other).unwrap().is_covered());
            let asked = queries(&link);
            let offered = link
                .retract(witness.id())
                .unwrap()
                .expect("the witness was sent");
            assert_eq!(queries(&link), asked + 1);
            assert_eq!(offered.len(), 1);
            assert_eq!(offered[0].0, narrow);
            assert!(offered[0].1.is_covered());
            assert_eq!(held_back(&link), [(3, other.id())]);

            // The survivor goes too: narrow goes out.
            let offered = link
                .retract(other.id())
                .unwrap()
                .expect("the survivor was sent");
            assert_eq!(offered.len(), 1);
            assert!(!offered[0].1.is_covered());
            assert_eq!(link.sent.ids().collect::<Vec<_>>(), [3]);
            assert!(held_back(&link).is_empty());
        }
    }

    #[test]
    fn a_witness_list_is_offered_again_in_arrival_order() {
        let s = schema();
        let mut link = Link::new(&s, CoveringPolicy::ExactSfc).unwrap();
        let wide = sub(&s, 1, (0.0, 100.0), (0.0, 100.0));
        let middle = sub(&s, 2, (10.0, 60.0), (10.0, 60.0));
        let narrow = sub(&s, 3, (20.0, 30.0), (20.0, 30.0));
        assert!(!link.offer(&wide).unwrap().is_covered());
        assert!(link.offer(&middle).unwrap().is_covered());
        assert!(link.offer(&narrow).unwrap().is_covered());
        assert_eq!(held_back(&link), [(2, 1), (3, 1)]);
        // `middle` arrived first, so it goes out first and `narrow` ends
        // behind it; the other order would send both.
        let offered = link.retract(wide.id()).unwrap().expect("wide was sent");
        let verdicts: Vec<(SubId, bool)> = offered
            .iter()
            .map(|(s, d)| (s.id(), !d.is_covered()))
            .collect();
        assert_eq!(verdicts, [(2, true), (3, false)]);
        assert_eq!(held_back(&link), [(3, 2)]);
    }

    /// A release scans from the newest entry; what stays keeps its arrival
    /// order, which `take` hands back.
    #[test]
    fn a_release_leaves_the_rest_in_arrival_order() {
        let s = schema();
        let mut held = Held::default();
        for id in 2..=6 {
            held.hold(1, sub(&s, id, (10.0, 20.0 + id as f64), (10.0, 20.0)));
        }
        for gone in [6, 4] {
            assert_eq!(held.release(gone).map(|s| s.id()), Some(gone));
        }
        assert_eq!(held.release(4), None);
        assert_eq!(held.disagreements(), []);
        assert_eq!(held.witness(5), Some(1));
        let taken: Vec<SubId> = held.take(1).iter().map(Subscription::id).collect();
        assert_eq!(taken, [2, 3, 5]);
        assert_eq!(held.len(), 0);
    }

    #[test]
    fn grid_identical_twins_hand_over() {
        let s = schema();
        // In the same grid cells (6..=12 on both attributes), but neither's
        // raw bounds hold the other's: (10.05, 10.05) is an event only the
        // first matches, so neither may stand for the other and both go out.
        let mut link = Link::new(&s, CoveringPolicy::ExactSfc).unwrap();
        let apart = [
            sub(&s, 1, (10.0, 20.0), (10.0, 20.0)),
            sub(&s, 2, (10.1, 20.1), (10.1, 20.1)),
        ];
        assert_eq!(apart[0].grid_bounds(), apart[1].grid_bounds());
        assert!(!apart[0].covers(&apart[1]) && !apart[1].covers(&apart[0]));
        for twin in &apart {
            assert!(!link.offer(twin).unwrap().is_covered());
        }
        assert!(held_back(&link).is_empty());
        assert_eq!(link.retract(apart[0].id()).unwrap(), Some(vec![]));

        // Raw-nested in the same cells: the inner one is held back, goes out
        // when the outer one goes, and does not hold the outer one back when
        // it comes again.
        let mut link = Link::new(&s, CoveringPolicy::ExactSfc).unwrap();
        let outer = sub(&s, 1, (10.0, 20.1), (10.0, 20.1));
        let inner = sub(&s, 2, (10.1, 20.0), (10.1, 20.0));
        assert_eq!(outer.grid_bounds(), inner.grid_bounds());
        assert!(!link.offer(&outer).unwrap().is_covered());
        assert!(link.offer(&inner).unwrap().is_covered());
        assert_eq!(held_back(&link), [(2, 1)]);
        let offered = link.retract(outer.id()).unwrap().expect("was sent");
        assert_eq!(offered.len(), 1);
        assert!(offered[0].0 == inner && !offered[0].1.is_covered());
        assert!(!link.offer(&outer).unwrap().is_covered());
        assert!(held_back(&link).is_empty());

        // Equal raw bounds: each covers the other, so they hand over.
        let mut link = Link::new(&s, CoveringPolicy::ExactSfc).unwrap();
        let twins = [outer.clone(), outer.with_id(2)];
        assert!(!link.offer(&twins[0]).unwrap().is_covered());
        assert!(link.offer(&twins[1]).unwrap().is_covered());
        assert_eq!(held_back(&link), [(2, 1)]);
        // Each retraction sends the held-back twin; re-registering the
        // retracted one files it behind the twin that took over.
        for (gone, stays) in [(0, 1), (1, 0), (0, 1)] {
            let offered = link.retract(twins[gone].id()).unwrap().expect("was sent");
            assert_eq!(offered.len(), 1);
            assert_eq!(offered[0].0, twins[stays]);
            assert!(!offered[0].1.is_covered());
            assert!(held_back(&link).is_empty());
            assert!(link.offer(&twins[gone]).unwrap().is_covered());
            assert_eq!(held_back(&link), [(twins[gone].id(), twins[stays].id())]);
        }
    }

    #[test]
    fn a_reused_id_finds_no_stale_entry() {
        let s = schema();
        let mut link = Link::new(&s, CoveringPolicy::ExactSfc).unwrap();
        let wide = sub(&s, 1, (0.0, 50.0), (0.0, 100.0));
        let inside = sub(&s, 2, (10.0, 20.0), (10.0, 20.0));
        let outside = sub(&s, 2, (60.0, 70.0), (10.0, 20.0));
        assert!(!link.offer(&wide).unwrap().is_covered());
        for _ in 0..2 {
            // Held back, unsubscribed: its entry leaves both maps, and the
            // emptied list leaves `lists`.
            assert!(link.offer(&inside).unwrap().is_covered());
            assert_eq!(held_back(&link), [(2, 1)]);
            assert_eq!(link.retract(inside.id()).unwrap(), None);
            assert!(held_back(&link).is_empty());
            // The same id again, where nothing covers it: sent, so the
            // witness has nothing of it to offer when it goes.
            assert!(!link.offer(&outside).unwrap().is_covered());
            assert!(held_back(&link).is_empty());
            assert_eq!(link.retract(wide.id()).unwrap(), Some(vec![]));
            assert_eq!(link.retract(outside.id()).unwrap(), Some(vec![]));
            assert!(!link.offer(&wide).unwrap().is_covered());
        }
        // Held back, then sent by its witness's retraction, then gone: the
        // id comes back clean as well.
        assert!(link.offer(&inside).unwrap().is_covered());
        assert!(!link.retract(wide.id()).unwrap().expect("sent")[0]
            .1
            .is_covered());
        assert_eq!(link.retract(inside.id()).unwrap(), Some(vec![]));
        assert!(!link.offer(&inside).unwrap().is_covered());
        assert!(held_back(&link).is_empty());
        assert_eq!(link.sent.ids().collect::<Vec<_>>(), [2]);
    }
}
