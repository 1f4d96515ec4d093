//! The concurrent broker overlay: a routing-table service behind interior
//! locking.
//!
//! [`BrokerNetwork`] is a service layer: [`subscribe`], [`unsubscribe`] and
//! [`publish`] take `&self` and are callable from many threads at once (the
//! TCP daemon in [`crate::service`] drives one network from a whole worker
//! team). Concurrency control is the last two levels of the lock chain in
//! [`crate::lock`] (`LOCKING.md`):
//!
//! * the network-wide registration map is the [`Netreg`](lock::Netreg)
//!   mutex, and it is the **writer lock**: a subscribe, an unsubscribe and
//!   an [`audit`] hold it from start to end, so the overlay has one writer
//!   and its walks never interleave;
//! * every broker sits behind its own [`Broker`](lock::Broker)-level lock.
//!   A broker guard borrows the one token of the level below, so the
//!   overlay holds **at most one broker lock at a time**: a subscribe or
//!   unsubscribe is a `Walk` that takes one broker lock per step — the
//!   routing entry of what arrived there, then every outgoing link's
//!   decision (`Link::offer` / `Link::retract`, `link.rs`) — and a publish,
//!   which takes no registry lock, reads one broker at a time. A walk starts
//!   with its home broker's jobs, offers before retractions; under covering,
//!   a subscription its own client covers there has none (see `Walk`).
//!
//! Each public method mints the chain's [`Root`] and calls a crate-private
//! form that takes a token; the daemon calls those forms under its own lock.
//!
//! Counters are plain relaxed atomics (see [`crate::metrics`]).
//!
//! Each operation still completes synchronously: [`subscribe`] returns after
//! the subscription is propagated through the whole overlay, [`publish`]
//! returns the complete delivery list. A publish that runs beside a walk
//! from live set L to L′ delivers at least what L ∩ L′ matches and at most
//! what L ∪ L′ matches.
//!
//! [`subscribe`]: BrokerNetwork::subscribe
//! [`unsubscribe`]: BrokerNetwork::unsubscribe
//! [`publish`]: BrokerNetwork::publish
//! [`audit`]: BrokerNetwork::audit

use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet, VecDeque};
use std::ops::Range;
use std::rc::Rc;
use std::slice;

use std::sync::MutexGuard;

use acd_covering::{CoveringPolicy, QueryOutcome};
use acd_subscription::{Event, Schema, SubId, Subscription};

use crate::broker::{Broker, BrokerId, ClientId, EventCells, EventChunk};
use crate::error::BrokerError;
use crate::lock::{self, Before, Locked, Mutex, Root, RwLock};
use crate::metrics::{MetricCounters, NetworkMetrics};
use crate::topology::Topology;
use crate::Result;

/// Builder-style configuration for a [`BrokerNetwork`].
///
/// Topology and schema are mandatory (constructor arguments); everything
/// else defaults and is overridden fluently:
///
/// ```
/// use acd_broker::{BrokerConfig, Topology};
/// use acd_covering::CoveringPolicy;
/// use acd_subscription::Schema;
///
/// # fn main() -> Result<(), acd_broker::BrokerError> {
/// let schema = Schema::builder().attribute("x", 0.0, 1.0).build()?;
/// let net = BrokerConfig::new(Topology::star(4)?, &schema)
///     .policy(CoveringPolicy::ExactSfc)
///     .build()?;
/// assert_eq!(net.topology().brokers(), 4);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct BrokerConfig {
    topology: Topology,
    schema: Schema,
    policy: CoveringPolicy,
}

impl BrokerConfig {
    /// Starts a configuration over `topology` and `schema`, with covering
    /// detection disabled ([`CoveringPolicy::None`]) until
    /// [`policy`](Self::policy) says otherwise.
    pub fn new(topology: Topology, schema: &Schema) -> BrokerConfig {
        BrokerConfig {
            topology,
            schema: schema.clone(),
            policy: CoveringPolicy::None,
        }
    }

    /// Sets the covering policy every broker applies when propagating
    /// subscriptions.
    #[must_use]
    pub fn policy(mut self, policy: CoveringPolicy) -> BrokerConfig {
        self.policy = policy;
        self
    }

    /// Builds the network.
    ///
    /// # Errors
    ///
    /// Returns an error if the covering policy cannot build its indexes.
    pub fn build(self) -> Result<BrokerNetwork> {
        let mut brokers = Vec::with_capacity(self.topology.brokers());
        for id in 0..self.topology.brokers() {
            let broker = Broker::new(id, self.topology.neighbors(id), &self.schema, self.policy)?;
            brokers.push(RwLock::new(broker));
        }
        Ok(BrokerNetwork {
            topology: self.topology,
            schema: self.schema,
            policy: self.policy,
            brokers,
            registered: Mutex::new(HashMap::new()),
            counters: MetricCounters::default(),
        })
    }
}

/// A content-based publish/subscribe overlay with covering-aware
/// subscription propagation, safe to drive from many threads through
/// `&self` (see the module docs for the locking discipline).
///
/// Built with [`BrokerConfig`]:
///
/// ```
/// use acd_broker::{BrokerConfig, Topology};
/// use acd_covering::CoveringPolicy;
/// use acd_subscription::{Event, Schema, SubscriptionBuilder};
///
/// # fn main() -> Result<(), acd_broker::BrokerError> {
/// let schema = Schema::builder()
///     .attribute("price", 0.0, 100.0)
///     .bits_per_attribute(8)
///     .build()?;
/// let net = BrokerConfig::new(Topology::line(3)?, &schema)
///     .policy(CoveringPolicy::ExactSfc)
///     .build()?;
/// let sub = SubscriptionBuilder::new(&schema).range("price", 0.0, 50.0).build(1)?;
/// net.subscribe(0, 100, &sub)?;
/// let deliveries = net.publish(2, &Event::new(&schema, vec![25.0])?)?;
/// assert_eq!(deliveries, vec![(0, 100)]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct BrokerNetwork {
    topology: Topology,
    schema: Schema,
    policy: CoveringPolicy,
    /// Per-broker routing and covering state, at most one held at a time.
    brokers: Vec<RwLock<Broker, lock::Broker>>,
    /// Live subscription id → owning client, the key its home broker finds
    /// its local slot by; held by a walk from start to end: the writer lock.
    registered: Mutex<Registry, lock::Netreg>,
    counters: MetricCounters,
}

/// One breach of the overlay's invariants, as [`BrokerNetwork::audit`]
/// reports it: the broker holding the record, the neighbor whose link it is
/// on (`None`: the local tables), then the ids.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// `(broker, neighbor, id)`: a held-back structure's two maps disagree
    /// on `id` (listed twice, mirrored to another list or not at all, or
    /// mirrored only), or `id` is a witness whose list is empty.
    Unmirrored(BrokerId, Option<BrokerId>, SubId),
    /// `(broker, neighbor, id)`: `id` is held back on the link and sent on it.
    SentAndHeld(BrokerId, BrokerId, SubId),
    /// `(broker, neighbor, witness, id)`: `id` is held back on the link
    /// behind `witness`, which was not sent on it.
    UnsentWitness(BrokerId, BrokerId, SubId, SubId),
    /// `(broker, neighbor, witness, id)`: `witness`, as the sent index or
    /// local slot stores it, does not cover `id` ([`Subscription::covers`]).
    UncoveringWitness(BrokerId, Option<BrokerId>, SubId, SubId),
    /// `(broker, witness, id)`: the local `id` is held back behind
    /// `witness`, which is not an in-table slot of `id`'s client.
    ForeignWitness(BrokerId, SubId, SubId),
    /// `(broker, neighbor, id)`: a sent id, routing entry or held-back entry
    /// names the dead `id`. A dead held-back entry is still checked as a
    /// live one is: unsent, behind a sent witness covering it.
    DeadId(BrokerId, BrokerId, SubId),
    /// `(broker, neighbor, id)`: `neighbor` routes the live `id` from
    /// `broker`, which did not send it, or the reverse (or routes it twice).
    OneSidedRoute(BrokerId, BrokerId, SubId),
    /// `(broker, neighbor, id)`: the live `id`, local at `broker`, is on its
    /// link to `neighbor` (sent or held back) though a slot of its client
    /// covers it, or is not though it holds a slot or covering is off.
    Misadvertised(BrokerId, BrokerId, SubId),
    /// `(broker, id)`: `broker` holds `id` locally where the registry does
    /// not put it (unregistered, another client's, or a second copy); with
    /// no broker, `id` is registered and local nowhere.
    Misplaced(Option<BrokerId>, SubId),
}

impl BrokerNetwork {
    /// The overlay topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The covering policy every broker applies.
    pub fn policy(&self) -> CoveringPolicy {
        self.policy
    }

    /// The schema subscriptions and events must follow.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Accumulated metrics (routing-table entries are recomputed on access,
    /// locking one broker at a time).
    pub fn metrics(&self) -> NetworkMetrics {
        let mut metrics = self.counters.snapshot();
        let (mut entries, mut root) = (0u64, Root::mint());
        for cell in &self.brokers {
            entries += cell.read(root.token()).routing_table_entries() as u64;
        }
        metrics.routing_table_entries = entries;
        metrics
    }

    /// The raw resilience/service counters, for the daemon front door to
    /// record connection-level events (rejections, evictions, corrupt
    /// frames, absorbed retries) into the same snapshot.
    pub(crate) fn counters(&self) -> &MetricCounters {
        &self.counters
    }

    /// Runs `inspect` on broker `id` under its read lock, for tests and
    /// experiments. `inspect` must not call back into the network: a debug
    /// build panics if it does, and a release build may deadlock.
    ///
    /// # Errors
    ///
    /// Returns an error if `id` is out of range.
    pub fn inspect<R>(&self, id: BrokerId, inspect: impl FnOnce(&Broker) -> R) -> Result<R> {
        self.topology.check_broker(id)?;
        Ok(inspect(&self.cell(id).read(Root::mint().token())))
    }

    /// The lock cell of broker `id`.
    ///
    /// Every caller passes an id that was validated at the public boundary
    /// (`check_broker`) or produced by the topology's adjacency lists, which
    /// only hold in-range ids — a miss here is a bug, not bad input.
    fn cell(&self, id: BrokerId) -> &RwLock<Broker, lock::Broker> {
        self.brokers
            .get(id)
            .expect("broker ids are validated before they reach the overlay walk")
    }

    /// Registers `subscription` for `client` at broker `at`, and propagates
    /// it through the overlay applying the covering policy on every link.
    /// When this returns, the subscription is visible to every subsequent
    /// [`publish`](Self::publish) anywhere in the overlay.
    ///
    /// # Errors
    ///
    /// Returns an error if the broker does not exist, the subscription's
    /// schema does not match the network, or its identifier was already
    /// registered.
    pub fn subscribe(
        &self,
        at: BrokerId,
        client: ClientId,
        subscription: &Subscription,
    ) -> Result<()> {
        self.subscribe_under(Root::mint().token(), at, client, subscription)
    }

    /// [`subscribe`](Self::subscribe) with `token`.
    pub(crate) fn subscribe_under<P: Before<lock::Netreg>>(
        &self,
        token: &mut Locked<'_, P>,
        at: BrokerId,
        client: ClientId,
        subscription: &Subscription,
    ) -> Result<()> {
        self.subscription(token, at, client, subscription)?
            .run(self)
    }

    /// [`subscribe`](Self::subscribe) up to its overlay walk: registers
    /// `subscription` for `client` and adds it to broker `at`'s local
    /// tables, returning the walk that offers it on the links, then retracts
    /// the slots it demoted, not yet stepped, with the writer lock.
    pub(crate) fn subscription<'a, P: Before<lock::Netreg>>(
        &'a self,
        token: &'a mut Locked<'_, P>,
        at: BrokerId,
        client: ClientId,
        subscription: &Subscription,
    ) -> Result<Walk<'a>> {
        self.topology.check_broker(at)?;
        if subscription.schema() != &self.schema {
            return Err(BrokerError::Subscription(
                acd_subscription::SubscriptionError::SchemaMismatch,
            ));
        }
        let id = subscription.id();
        let (mut registered, mut token) = self.registered.lock(token);
        match registered.entry(id) {
            Entry::Occupied(_) => return Err(BrokerError::DuplicateSubscription { id }),
            Entry::Vacant(slot) => slot.insert(client),
        };
        MetricCounters::bump(&self.counters.subscriptions_registered);
        let demoted = self
            .cell(at)
            .write(&mut token)
            .add_local(client, subscription.clone());
        // Under covering a local subscription is on its broker's links
        // exactly when it holds a slot: one a slot of its client covers is
        // covered there already, and a demoted slot is covered by this one.
        let covering = self.policy.detects_covering();
        let offer = demoted.is_some() || !covering;
        let offer = offer.then(|| Job::Offer(Rc::new(subscription.clone())));
        let demoted = demoted.into_iter().flatten().filter(|_| covering);
        let retractions = demoted.map(|slot| Job::Retract(slot.id()));
        let jobs = offer.into_iter().chain(retractions);
        Ok(Walk::new(registered, token, at, jobs))
    }

    /// Folds one link's answer to an offer into the counters, returning
    /// whether the subscription goes out on the link.
    fn fold(&self, outcome: &QueryOutcome) -> bool {
        let (counters, stats) = (&self.counters, &outcome.stats);
        if self.policy.detects_covering() {
            MetricCounters::bump(&counters.covering_queries);
            MetricCounters::add(&counters.covering_runs_probed, stats.runs_probed as u64);
            let compared = stats.subscriptions_compared as u64;
            MetricCounters::add(&counters.covering_comparisons, compared);
        }
        MetricCounters::bump(if outcome.is_covered() {
            &counters.subscriptions_suppressed
        } else {
            &counters.subscription_messages
        });
        !outcome.is_covered()
    }

    /// Unregisters subscription `id` (which must have been registered by a
    /// client at broker `at`) and retracts it from the overlay: every link
    /// it was sent on removes it from its covering state and routing table,
    /// and the subscriptions held back there with it as their witness (the
    /// cover the link recorded when it suppressed them) are offered again,
    /// each going out or ending behind another cover, so deliveries stay
    /// exactly as if the remaining subscriptions had been registered alone.
    /// A subscription held back behind some *other* cover is not touched:
    /// most retractions mask nothing and issue no covering query.
    ///
    /// # Errors
    ///
    /// Returns an error if the broker does not exist or the subscription is
    /// not registered at it.
    pub fn unsubscribe(&self, at: BrokerId, id: SubId) -> Result<()> {
        self.unsubscribe_under(Root::mint().token(), at, id)
    }

    /// [`unsubscribe`](Self::unsubscribe) with `token`.
    pub(crate) fn unsubscribe_under<P: Before<lock::Netreg>>(
        &self,
        token: &mut Locked<'_, P>,
        at: BrokerId,
        id: SubId,
    ) -> Result<()> {
        self.retraction(token, at, id)?.run(self)
    }

    /// [`unsubscribe`](Self::unsubscribe) up to its overlay walk: unregisters
    /// `id` and takes it out of broker `at`'s local tables, returning the
    /// walk that offers those of its orphans that took a slot, then retracts
    /// it from the links, not yet stepped, with the writer lock.
    pub(crate) fn retraction<'a, P: Before<lock::Netreg>>(
        &'a self,
        token: &'a mut Locked<'_, P>,
        at: BrokerId,
        id: SubId,
    ) -> Result<Walk<'a>> {
        self.topology.check_broker(at)?;
        let (mut registered, mut token) = self.registered.lock(token);
        let Some(&client) = registered.get(&id) else {
            return Err(BrokerError::UnknownSubscription { id });
        };
        let covering = self.policy.detects_covering();
        let mut broker = self.cell(at).write(&mut token);
        // Under covering, one that a slot of its client held back never went out.
        let went_out = !covering || broker.held.witness(id).is_none();
        let Some(promoted) = broker.remove_local(client, id) else {
            // Registered at another broker: the same error, and the
            // registration stays intact.
            return Err(BrokerError::UnknownSubscription { id });
        };
        drop(broker);
        registered.remove(&id);
        MetricCounters::bump(&self.counters.unsubscriptions);
        let promoted = promoted.into_iter().filter(|_| covering);
        let offers = promoted.map(|s| Job::Offer(Rc::new(s)));
        let jobs = offers.chain(went_out.then_some(Job::Retract(id)));
        Ok(Walk::new(registered, token, at, jobs))
    }

    /// Every breach of the overlay's invariants, in no order: none when it
    /// is well formed. Per link, what `Link` (`link.rs`) promises of its
    /// held-back subscriptions; per broker, that of `Broker::local`; and
    /// across the overlay, that each registered id is local at exactly one
    /// broker, that no link record names an id the registry does not hold,
    /// and that a broker holds a routing entry from a neighbor exactly for
    /// the live ids the neighbor sent it.
    ///
    /// Holds the writer lock throughout, reading one broker at a time
    /// (`LOCKING.md`), so no walk is in flight while it runs.
    pub fn audit(&self) -> Vec<Violation> {
        let mut root = Root::mint();
        let (registered, mut token) = self.registered.lock(root.token());
        let mut unplaced: HashSet<SubId> = registered.keys().copied().collect();
        let (mut found, mut sent, mut routed) = (Vec::new(), HashSet::new(), HashSet::new());
        let covering = self.policy.detects_covering();
        for (broker, cell) in self.brokers.iter().enumerate() {
            let guard = cell.read(&mut token);
            for id in guard.audit(&registered, covering, &mut found, &mut sent, &mut routed) {
                if !unplaced.remove(&id) && registered.contains_key(&id) {
                    found.push(Violation::Misplaced(Some(broker), id));
                }
            }
        }
        let one_sided = sent.symmetric_difference(&routed);
        found.extend(one_sided.map(|&(b, n, id)| Violation::OneSidedRoute(b, n, id)));
        found.extend(unplaced.iter().map(|&id| Violation::Misplaced(None, id)));
        found
    }

    /// Publishes `event` at broker `at` and returns the deliveries it caused
    /// as strictly ascending `(broker, client)` pairs: one per client with
    /// **at least one** matching subscription at that broker, not one per
    /// matching subscription (the `deliveries` counter counts these pairs
    /// too). On the benchmark's fan-out workload an event matches 2 573 of
    /// 10 000 subscriptions and is delivered to 332 pairs. Nothing sorts
    /// them: each broker emits its clients ascending, and the walk places
    /// the brokers' shares in broker-id order. An event of a foreign schema
    /// matches nothing and is delivered nowhere.
    ///
    /// # Errors
    ///
    /// Returns an error if the broker does not exist.
    pub fn publish(&self, at: BrokerId, event: &Event) -> Result<Vec<(BrokerId, ClientId)>> {
        let mut lists = self.publish_batch(at, slice::from_ref(event))?;
        Ok(lists.pop().unwrap_or_default())
    }

    /// Publishes a batch of events at broker `at`, returning each event's
    /// deliveries in input order — exactly what [`publish`](Self::publish)
    /// would have returned event by event: sorted `(broker, client)` pairs,
    /// one per client with at least one matching subscription at that
    /// broker.
    ///
    /// The batch is cut into chunks of 64 events, each taking one overlay
    /// walk that locks every broker on its subtree once. Inside a broker the
    /// chunk is matched on the grid, its events tabulated by cell once, so a
    /// slot costs the same however many events the chunk holds (see
    /// [`EventChunk`], [`Broker::matching_clients_mask`] and
    /// [`Broker::neighbor_interested_mask`]). An event crosses a link exactly
    /// when the serial walk would have forwarded it there, and each list
    /// fills in ascending order with no sort. A chunk of fewer than
    /// `SERIAL_BELOW` events takes the serial walk event by event.
    ///
    /// Counters advance exactly as the serial loop would: `events_published`
    /// bumps once per batch element, `event_messages` once per (event, link)
    /// crossing and `deliveries` once per delivered pair — never once per
    /// batch.
    ///
    /// # Errors
    ///
    /// Returns an error if the broker does not exist; the batch is validated
    /// before any counter moves, so on error nothing was published.
    pub fn publish_batch(
        &self,
        at: BrokerId,
        events: &[Event],
    ) -> Result<Vec<Vec<(BrokerId, ClientId)>>> {
        let mut lists: Vec<Vec<(BrokerId, ClientId)>> = Vec::with_capacity(events.len());
        let mut root = Root::mint();
        self.publish_chunks(
            root.token(),
            at,
            events,
            &mut Vec::new(),
            |triples, chunk| {
                let first = lists.len();
                lists.resize_with(first + chunk, Vec::new);
                for &(broker, client, mask) in triples {
                    // A lone event's mask bits are clients, a chunk's events.
                    for_each_bit(mask, |i| {
                        let (event, offset) = if chunk == 1 { (0, i) } else { (i, 0) };
                        let list = lists.get_mut(first + event).into_iter();
                        list.for_each(|list| list.push((broker, client | offset as u64)));
                    });
                }
            },
        )?;
        Ok(lists)
    }

    /// The one chunk loop of [`publish`](Self::publish),
    /// [`publish_batch`](Self::publish_batch) and the daemon: validates `at`,
    /// counts the events, and hands `answer` each chunk's matches, in input
    /// order, with the chunk's length. `triples` is reused scratch.
    pub(crate) fn publish_chunks<P: Before<lock::Broker>>(
        &self,
        token: &mut Locked<'_, P>,
        at: BrokerId,
        events: &[Event],
        triples: &mut Vec<Triple>,
        mut answer: impl FnMut(&[Triple], usize),
    ) -> Result<()> {
        self.topology.check_broker(at)?;
        MetricCounters::add(&self.counters.events_published, events.len() as u64);
        for events in events.chunks(EventChunk::WIDTH) {
            if events.len() >= SERIAL_BELOW {
                // The rank kernel, on the grid.
                triples.clear();
                let chunk = EventChunk::new(&self.schema, events);
                self.walk(
                    token,
                    at,
                    chunk.valid(),
                    triples,
                    |broker, id, active, out| {
                        broker.matching_clients_mask(&chunk, active, |client, mask| {
                            out.push((id, client, mask));
                        });
                    },
                    |broker, neighbor, active| {
                        broker.neighbor_interested_mask(neighbor, &chunk, active)
                    },
                );
                answer(triples, events.len());
                continue;
            }
            for event in events {
                triples.clear();
                // The serial kernel, on the event's own cells: an event
                // without cells (a foreign schema, a value outside its
                // domain) matches nothing anywhere.
                if let Some(cells) = EventCells::new(&self.schema, event) {
                    self.walk(
                        token,
                        at,
                        1,
                        triples,
                        |broker, id, _, out| {
                            // Each client joins its page: the last triple, or a new one.
                            broker.matching_clients(&cells, |client| {
                                let (page, bit) = (client & !63, 1 << (client & 63));
                                match out.last_mut() {
                                    Some((b, p, bits)) if (*b, *p) == (id, page) => *bits |= bit,
                                    _ => out.push((id, page, bit)),
                                }
                            });
                        },
                        |broker, neighbor, _| {
                            u64::from(broker.neighbor_interested(neighbor, &cells))
                        },
                    );
                }
                answer(triples, 1);
            }
        }
        Ok(())
    }

    /// The overlay walk of the events in `valid` (up to 64) from `at`, a
    /// checked broker id: fills the empty `matched` with the [`Triple`] of
    /// every client `matching` finds at a broker, and crosses each link with
    /// the events `interested` says the neighbor wants. Advances
    /// `event_messages` per (event, link) crossing and `deliveries` per pair.
    fn walk<P: Before<lock::Broker>>(
        &self,
        token: &mut Locked<'_, P>,
        at: BrokerId,
        valid: u64,
        matched: &mut Vec<Triple>,
        matching: impl Fn(&Broker, BrokerId, u64, &mut Vec<Triple>),
        interested: impl Fn(&Broker, BrokerId, u64) -> u64,
    ) {
        let mut shares = Shares::new(self.brokers.len());
        let mut queue: VecDeque<(BrokerId, Option<BrokerId>, u64)> = VecDeque::new();
        queue.push_back((at, None, valid));
        while let Some((broker_id, from, active)) = queue.pop_front() {
            let broker = self.cell(broker_id).read(token);
            let start = matched.len();
            matching(&broker, broker_id, active, matched);
            shares.record(broker_id, start..matched.len());
            for &neighbor in self.topology.neighbors(broker_id) {
                if Some(neighbor) == from {
                    continue;
                }
                let crossing = interested(&broker, neighbor, active);
                if crossing != 0 {
                    let crossings = u64::from(crossing.count_ones());
                    MetricCounters::add(&self.counters.event_messages, crossings);
                    queue.push_back((neighbor, Some(broker_id), crossing));
                }
            }
        }
        shares.place(matched);
        // Strictly ascending by `(broker, client)`: the topology is a tree,
        // so the walk visits a broker once, and the kernels emit each client
        // once, in ascending order. The wire depends on it: a `Deliveries`
        // frame stores each page's key as its distance from the one before,
        // and its decoder rejects a list that does not ascend.
        debug_assert!(matched.is_sorted_by(|a, b| (a.0, a.1) < (b.0, b.1)));
        let delivered = matched
            .iter()
            .map(|&(_, _, mask)| u64::from(mask.count_ones()));
        MetricCounters::add(&self.counters.deliveries, delivered.sum());
    }
}

/// The live registrations: subscription id → owning client.
pub(crate) type Registry = HashMap<SubId, ClientId>;

/// The order a whole live set installs in, covers first: widest first by
/// the sum of each raw bound's width as a fraction of its attribute's
/// domain, ties by id. A cover ([`Subscription::covers`]) is at least as
/// wide on every attribute, so it sorts first (twins keep id order, and a
/// strict cover can tie only by rounding), and each link then sends only
/// the maximal subscriptions on its side.
pub fn covering_order(a: &Subscription, b: &Subscription) -> std::cmp::Ordering {
    let breadth = |s: &Subscription| -> f64 {
        let bounds = s.raw_bounds().iter().zip(s.schema().attributes());
        bounds
            .map(|(&(lo, hi), d)| (hi - lo) / (d.max() - d.min()))
            .sum()
    };
    breadth(b).total_cmp(&breadth(a)).then(a.id().cmp(&b.id()))
}

/// The overlay walk of one [`BrokerNetwork::subscribe`] or
/// [`BrokerNetwork::unsubscribe`], as a value: the arrivals still to run,
/// each a job at a broker and the neighbor it came from (in a tree, all it
/// takes to never go back), from the home broker's, offers first. First in,
/// first out, so each broker runs its jobs in the order they were decided —
/// an offer before the retraction it makes safe. A walk owns the registry
/// guard, the writer lock, until it is dropped: no two walks exist at once.
/// It owns the registry's token too: each step, and a publish between
/// steps, takes its broker locks with it.
#[derive(Debug)]
pub(crate) struct Walk<'a> {
    _writer: MutexGuard<'a, Registry>,
    token: Locked<'a, lock::Netreg>,
    queue: VecDeque<(BrokerId, Option<BrokerId>, Job)>,
}

/// What a subscription does at a broker it arrives at: become a routing
/// entry there and be offered on every onward link, or leave the routing
/// table and be retracted from every onward link.
#[derive(Debug)]
enum Job {
    Offer(Rc<Subscription>),
    Retract(SubId),
}

impl<'a> Walk<'a> {
    fn new(
        _writer: MutexGuard<'a, Registry>,
        token: Locked<'a, lock::Netreg>,
        at: BrokerId,
        jobs: impl IntoIterator<Item = Job>,
    ) -> Walk<'a> {
        let queue = jobs.into_iter().map(|job| (at, None, job)).collect();
        Walk {
            _writer,
            token,
            queue,
        }
    }

    /// Steps the walk to its end.
    fn run(mut self, net: &BrokerNetwork) -> Result<()> {
        while self.step(net)? {}
        Ok(())
    }

    /// Runs the next arrival under its broker's write lock: the
    /// routing-table change, then every onward link's decision, queueing the
    /// jobs that cross. `Ok(false)`, and nothing done, when none was left;
    /// an error when a covering index rejects an operation.
    pub(crate) fn step(&mut self, net: &BrokerNetwork) -> Result<bool> {
        let Some((at, from, job)) = self.queue.pop_front() else {
            return Ok(false);
        };
        let mut broker = net.cell(at).write(&mut self.token);
        let onward = net
            .topology
            .neighbors(at)
            .iter()
            .filter(|&&n| Some(n) != from);
        match job {
            Job::Offer(subscription) => {
                if let Some(from) = from {
                    broker.add_received(from, &subscription);
                }
                for &neighbor in onward {
                    if net.fold(&broker.link_mut(neighbor).offer(&subscription)?) {
                        let job = Job::Offer(Rc::clone(&subscription));
                        self.queue.push_back((neighbor, Some(at), job));
                    }
                }
            }
            Job::Retract(id) => {
                if let Some(from) = from {
                    broker.remove_received(from, id);
                }
                // Only the links it was sent on lead on; a link it was held
                // back on just drops the entry, inside `retract`.
                for &neighbor in onward {
                    let Some(offered) = broker.link_mut(neighbor).retract(id)? else {
                        continue;
                    };
                    MetricCounters::bump(&net.counters.unsubscription_messages);
                    for (candidate, outcome) in offered {
                        if net.fold(&outcome) {
                            let job = Job::Offer(Rc::new(candidate));
                            self.queue.push_back((neighbor, Some(at), job));
                        }
                    }
                    self.queue.push_back((neighbor, Some(at), Job::Retract(id)));
                }
            }
        }
        Ok(true)
    }
}

/// What the walks emit, ascending by `(broker, client)`. For a chunk of
/// events, a client x event mask: `(broker, client, events it is for)`. For a
/// lone event, a page x client mask: `(broker, first client of a 64-client
/// page, clients of the page)`, the transpose the wire's burst encoder takes.
pub type Triple = (BrokerId, ClientId, u64);

/// Calls `f` with the index of every set bit of `mask`, lowest first.
#[inline]
pub(crate) fn for_each_bit(mut mask: u64, mut f: impl FnMut(usize)) {
    while mask != 0 {
        f(mask.trailing_zeros() as usize);
        mask &= mask - 1;
    }
}

/// The chunk length below which [`BrokerNetwork::publish_batch`] runs the
/// serial walk per event: a rank pass costs per slot, a serial walk per
/// event. At 10 000 subscriptions over 64 clients (README "Batched publish
/// execution", the rank kernel forced on) rank ÷ serial reads 0.95–0.98 at
/// 12 events, 0.77–0.88 at 14, 0.77–0.85 at 16 and 0.67–0.78 at 20; with
/// one client per subscription 0.85–0.94, 0.82–0.98, 0.79–0.82 and
/// 0.72–0.74. The leader pass and lone pages raised each by 0.03–0.07, too
/// little to move the crossover by two events on either population.
const SERIAL_BELOW: usize = 14;

/// Where each broker's share of a walk's output lies — `spans[b]` is the
/// output broker `b` added, empty if none — so that the shares can be put
/// in broker-id order when the walk is over. A broker emits its clients
/// ascending, so that order is the `(broker, client)` order the wire needs,
/// and no sort runs.
struct Shares {
    spans: Vec<Range<usize>>,
}

impl Shares {
    fn new(brokers: usize) -> Shares {
        Shares {
            spans: vec![0..0; brokers],
        }
    }

    /// Notes that broker `broker` (visited once per walk) added `span`.
    fn record(&mut self, broker: BrokerId, span: Range<usize>) {
        if let Some(slot) = self.spans.get_mut(broker) {
            *slot = span;
        }
    }

    /// Puts the shares of `output` in broker-id order: nothing to do when
    /// the walk met the brokers that added any in that order (a BFS from
    /// the root of a tree numbered level by level), else one copy within
    /// the buffer, so reused scratch keeps its allocation once grown. Out of
    /// line: inlined into `walk` it cost `pingpong` 0.8 % of `op_p50_ref` (2 vCPUs).
    #[inline(never)]
    fn place<T: Clone>(&self, output: &mut Vec<T>) {
        let shares = self.spans.iter().filter(|span| !span.is_empty());
        if shares.is_sorted_by_key(|span| span.start) {
            return;
        }
        let walked = output.len();
        for span in &self.spans {
            output.extend_from_within(span.clone());
        }
        output.drain(..walked);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::broker::tests::{schema, sub};
    use crate::link::{Held, Link};
    use acd_subscription::SubscriptionBuilder;

    fn network(topology: Topology, schema: &Schema, policy: CoveringPolicy) -> BrokerNetwork {
        BrokerConfig::new(topology, schema)
            .policy(policy)
            .build()
            .unwrap()
    }

    #[test]
    fn network_is_shareable_across_threads() {
        fn assert_traits<T: Send + Sync>() {}
        assert_traits::<BrokerNetwork>();
    }

    #[test]
    fn config_defaults_to_no_covering() {
        let s = schema();
        let net = BrokerConfig::new(Topology::line(2).unwrap(), &s)
            .build()
            .unwrap();
        assert_eq!(net.policy(), CoveringPolicy::None);
    }

    #[test]
    fn events_are_delivered_across_the_overlay() {
        let s = schema();
        let net = network(Topology::line(4).unwrap(), &s, CoveringPolicy::ExactSfc);
        net.subscribe(0, 10, &sub(&s, 1, (0.0, 50.0), (0.0, 50.0)))
            .unwrap();
        net.subscribe(3, 30, &sub(&s, 2, (40.0, 100.0), (40.0, 100.0)))
            .unwrap();

        let e = Event::new(&s, vec![45.0, 45.0]).unwrap();
        let deliveries = net.publish(1, &e).unwrap();
        assert_eq!(deliveries, vec![(0, 10), (3, 30)]);

        let only_left = Event::new(&s, vec![10.0, 10.0]).unwrap();
        assert_eq!(net.publish(3, &only_left).unwrap(), vec![(0, 10)]);

        let metrics = net.metrics();
        assert_eq!(metrics.subscriptions_registered, 2);
        assert_eq!(metrics.events_published, 2);
        assert!(metrics.event_messages >= 3);
        assert_eq!(metrics.deliveries, 3);
    }

    #[test]
    fn covering_reduces_messages_without_changing_deliveries() {
        let s = schema();
        // Subscriptions: one broad subscription plus many narrow ones that it
        // covers, all registered at the same broker.
        let subs: Vec<Subscription> = std::iter::once(sub(&s, 1, (0.0, 100.0), (0.0, 100.0)))
            .chain((2..=20).map(|i| {
                let lo = (i * 2) as f64;
                sub(&s, i, (lo, lo + 10.0), (lo, lo + 10.0))
            }))
            .collect();
        let events: Vec<Event> = (0..20)
            .map(|i| Event::new(&s, vec![i as f64 * 5.0, i as f64 * 5.0]).unwrap())
            .collect();

        let run = |policy: CoveringPolicy| {
            let net = network(Topology::balanced_tree(2, 3).unwrap(), &s, policy);
            for (i, subscription) in subs.iter().enumerate() {
                net.subscribe(0, 100 + i as u64, subscription).unwrap();
            }
            let mut all_deliveries = Vec::new();
            for (i, e) in events.iter().enumerate() {
                let at = i % net.topology().brokers();
                all_deliveries.push(net.publish(at, e).unwrap());
            }
            (net.metrics(), all_deliveries)
        };

        let (flood, flood_deliveries) = run(CoveringPolicy::None);
        let (exact, exact_deliveries) = run(CoveringPolicy::ExactSfc);
        let (approx, approx_deliveries) = run(CoveringPolicy::Approximate { epsilon: 0.05 });

        // Covering must never change deliveries.
        assert_eq!(flood_deliveries, exact_deliveries);
        assert_eq!(flood_deliveries, approx_deliveries);

        // Covering must reduce subscription traffic and routing state.
        assert!(exact.subscription_messages < flood.subscription_messages);
        assert!(exact.routing_table_entries < flood.routing_table_entries);
        assert!(approx.subscription_messages <= flood.subscription_messages);
        assert!(approx.subscription_messages >= exact.subscription_messages);
        assert!(exact.subscriptions_suppressed > 0);
        assert_eq!(flood.subscriptions_suppressed, 0);
    }

    #[test]
    fn rejects_bad_brokers_duplicates_and_foreign_schemas() {
        let s = schema();
        let net = network(Topology::star(3).unwrap(), &s, CoveringPolicy::None);
        let a = sub(&s, 1, (0.0, 10.0), (0.0, 10.0));
        assert!(net.subscribe(9, 1, &a).is_err());
        net.subscribe(0, 1, &a).unwrap();
        assert!(matches!(
            net.subscribe(1, 2, &a),
            Err(BrokerError::DuplicateSubscription { id: 1 })
        ));
        let other = Schema::builder().attribute("z", 0.0, 1.0).build().unwrap();
        let foreign = SubscriptionBuilder::new(&other).build(5).unwrap();
        assert!(net.subscribe(0, 1, &foreign).is_err());
        let e = Event::new(&s, vec![1.0, 1.0]).unwrap();
        assert!(net.publish(7, &e).is_err());
    }

    #[test]
    fn subscription_propagation_counts_messages_per_link() {
        let s = schema();
        let net = network(Topology::line(5).unwrap(), &s, CoveringPolicy::None);
        net.subscribe(2, 1, &sub(&s, 1, (0.0, 10.0), (0.0, 10.0)))
            .unwrap();
        // Flooding from the middle of a 5-line reaches the 4 other brokers
        // over exactly 4 links.
        assert_eq!(net.metrics().subscription_messages, 4);
        assert_eq!(net.metrics().routing_table_entries, 4);
        // Each non-origin broker holds exactly one routing entry.
        let entries = |id| net.inspect(id, Broker::routing_table_entries).unwrap();
        for id in [0usize, 1, 3, 4] {
            assert_eq!(entries(id), 1);
        }
        assert_eq!(entries(2), 0);
        assert_eq!(net.inspect(2, Broker::local_subscriptions).unwrap(), 1);
    }

    #[test]
    fn unsubscribe_reverts_routing_state_and_readvertises_masked_subs() {
        let s = schema();
        for policy in [
            CoveringPolicy::None,
            CoveringPolicy::ExactLinear,
            CoveringPolicy::ExactSfc,
        ] {
            let net = network(Topology::line(3).unwrap(), &s, policy);
            let wide = sub(&s, 1, (0.0, 100.0), (0.0, 100.0));
            let narrow = sub(&s, 2, (10.0, 30.0), (10.0, 30.0));
            // The wide subscription masks the narrow one on every link.
            net.subscribe(0, 10, &wide).unwrap();
            net.subscribe(0, 11, &narrow).unwrap();

            let hit_narrow = Event::new(&s, vec![20.0, 20.0]).unwrap();
            assert_eq!(
                net.publish(2, &hit_narrow).unwrap(),
                vec![(0, 10), (0, 11)],
                "policy {}",
                policy.label()
            );

            // Removing the wide cover must keep the narrow one reachable
            // from every broker (re-advertised where it was suppressed).
            net.unsubscribe(0, 1).unwrap();
            assert_eq!(
                net.publish(2, &hit_narrow).unwrap(),
                vec![(0, 11)],
                "policy {}: narrow lost after unsubscribe",
                policy.label()
            );
            let miss_narrow = Event::new(&s, vec![80.0, 80.0]).unwrap();
            assert_eq!(net.publish(2, &miss_narrow).unwrap(), vec![]);

            // Removing the narrow one too empties the overlay.
            net.unsubscribe(0, 2).unwrap();
            assert_eq!(net.publish(2, &hit_narrow).unwrap(), vec![]);
            assert_eq!(net.metrics().routing_table_entries, 0);
            assert_eq!(net.metrics().unsubscriptions, 2);

            // Identifiers become reusable after unsubscription.
            net.subscribe(1, 12, &narrow).unwrap();
            assert_eq!(net.publish(2, &hit_narrow).unwrap(), vec![(1, 12)]);
        }
    }

    #[test]
    fn unsubscribe_rejects_unknown_ids_and_wrong_brokers() {
        let s = schema();
        let net = network(Topology::line(3).unwrap(), &s, CoveringPolicy::ExactSfc);
        let a = sub(&s, 1, (0.0, 10.0), (0.0, 10.0));
        net.subscribe(0, 1, &a).unwrap();
        assert!(matches!(
            net.unsubscribe(0, 99),
            Err(BrokerError::UnknownSubscription { id: 99 })
        ));
        // Registered, but at broker 0 — unsubscribing at broker 1 fails and
        // leaves the registration intact.
        assert!(matches!(
            net.unsubscribe(1, 1),
            Err(BrokerError::UnknownSubscription { id: 1 })
        ));
        assert!(net
            .publish(2, &Event::new(&s, vec![5.0, 5.0]).unwrap())
            .unwrap()
            .contains(&(0, 1)));
        assert!(net.unsubscribe(9, 1).is_err());
        net.unsubscribe(0, 1).unwrap();
    }

    #[test]
    fn suppressed_sets_stay_bounded_under_long_churn_histories() {
        // A long alternating churn history on a line overlay: every round
        // registers one wide cover and a few narrow subscriptions it masks,
        // then retires the whole round. A held-back entry leaves its link
        // when its witness's retraction re-offers it or when its own
        // unsubscribe walk passes (`Link::retract`). So at every step the
        // audit finds each link's held-back entries live, once each, behind
        // sent witnesses — none per *historical* suppression — and at the
        // end, with nothing registered, finds nothing left at all.
        let s = schema();
        let net = network(Topology::line(4).unwrap(), &s, CoveringPolicy::ExactSfc);
        let mut next_id: SubId = 1;
        for round in 0..60 {
            let wide_id = next_id;
            net.subscribe(0, 10, &sub(&s, wide_id, (0.0, 100.0), (0.0, 100.0)))
                .unwrap();
            let narrow_ids: Vec<SubId> = (0..3)
                .map(|k| {
                    let id = next_id + 1 + k;
                    let lo = 10.0 + (round % 5) as f64 * 10.0 + k as f64;
                    net.subscribe(0, 11, &sub(&s, id, (lo, lo + 5.0), (lo, lo + 5.0)))
                        .unwrap();
                    id
                })
                .collect();
            next_id += 4;
            assert_eq!(net.audit(), [], "round {round}");
            assert!(net.inspect(0, Broker::suppressed_entries).unwrap() > 0);

            // Retire the round in cover-first order, which exercises the
            // re-advertise + re-suppress chain every time.
            net.unsubscribe(0, wide_id).unwrap();
            assert_eq!(net.audit(), [], "round {round}");
            for id in narrow_ids {
                net.unsubscribe(0, id).unwrap();
            }
            assert_eq!(net.audit(), [], "round {round}");
        }
        // Nothing registered, so any record left would be a dead id.
        let metrics = net.metrics();
        assert_eq!(metrics.subscriptions_registered, metrics.unsubscriptions);
    }

    #[test]
    fn publish_batch_matches_serial_publishes_and_counters() {
        let s = schema();
        let foreign_schema = Schema::builder()
            .attribute("other", 0.0, 1.0)
            .bits_per_attribute(4)
            .build()
            .unwrap();
        let foreign = Event::new(&foreign_schema, vec![0.5]).unwrap();
        let events: Vec<Event> = (0..170)
            .map(|i| {
                let v = (i * 9 % 100) as f64;
                Event::new(&s, vec![v, v]).unwrap()
            })
            .collect();
        // A foreign-schema event in the middle of a full chunk delivers
        // nowhere (its valid bit is clear), exactly like the serial path,
        // while its neighbors still deliver.
        let mut mixed = events[..EventChunk::WIDTH].to_vec();
        mixed[31] = foreign.clone();
        // Bursts on both sides of `SERIAL_BELOW` and of every chunk seam: a
        // lone event, a chunk one short, full and one over (a one-event
        // serial tail), two chunks one short and one over, and two chunks
        // plus a 42-event tail that takes the rank kernel again; then the
        // foreign-schema event on either path.
        let mut bursts: Vec<&[Event]> = [1, SERIAL_BELOW - 1, SERIAL_BELOW, 63, 64, 65, 127, 129]
            .iter()
            .map(|&len| &events[..len])
            .collect();
        let short_mixed = [foreign, events[0].clone()];
        bursts.extend([&events[..], &mixed[..], &short_mixed[..]]);
        for policy in [
            CoveringPolicy::None,
            CoveringPolicy::ExactSfc,
            CoveringPolicy::Approximate { epsilon: 0.05 },
        ] {
            let brokers = Topology::balanced_tree(2, 3).unwrap().brokers();
            let build = || {
                let net = network(Topology::balanced_tree(2, 3).unwrap(), &s, policy);
                // Four subscriptions a broker, of clients 100 to 159: a lone
                // event's deliveries at a broker span pages 1 and 2 of 64
                // clients, some pages holding several clients.
                for i in 0..60u64 {
                    let lo = (i * 7 % 80) as f64;
                    net.subscribe(
                        (i as usize) % brokers,
                        100 + i,
                        &sub(&s, i + 1, (lo, lo + 15.0), (lo, lo + 15.0)),
                    )
                    .unwrap();
                }
                net
            };
            let serial_net = build();
            let batch_net = build();
            for burst in &bursts {
                let serial: Vec<Vec<(BrokerId, ClientId)>> = burst
                    .iter()
                    .map(|e| serial_net.publish(1, e).unwrap())
                    .collect();
                let batched = batch_net.publish_batch(1, burst).unwrap();
                let context = format!("policy {}, {} events", policy.label(), burst.len());
                assert_eq!(serial, batched, "{context}");
                assert!(serial.iter().any(|list| !list.is_empty()), "{context}");
                let foreign_delivers_nowhere = burst
                    .iter()
                    .zip(&batched)
                    .all(|(event, list)| event.schema() == &s || list.is_empty());
                assert!(foreign_delivers_nowhere, "{context}");

                // The batch advances the counters exactly as the serial loop:
                // per event, per (event, link) crossing, per delivered pair.
                let sm = serial_net.metrics();
                let bm = batch_net.metrics();
                assert_eq!(sm.events_published, bm.events_published, "{context}");
                assert_eq!(sm.event_messages, bm.event_messages, "{context}");
                assert_eq!(sm.deliveries, bm.deliveries, "{context}");
            }

            // An empty batch publishes nothing and counts nothing; a bad
            // broker fails the whole batch before any counter moves.
            let before = batch_net.metrics().events_published;
            assert!(batch_net.publish_batch(1, &[]).unwrap().is_empty());
            assert!(batch_net.publish_batch(99, &events).is_err());
            assert_eq!(batch_net.metrics().events_published, before);
        }
    }

    /// From every broker but the root of a tree numbered level by level the
    /// BFS meets the brokers out of id order, so the walks must place the
    /// brokers' shares: every list, serial and batched, is strictly
    /// ascending and equals a linear scan. Broker 5 holds enough
    /// subscriptions to split its local table.
    #[test]
    fn deliveries_ascend_whatever_order_the_walk_meets_the_brokers() {
        let s = schema();
        let net = network(
            Topology::balanced_tree(2, 2).unwrap(),
            &s,
            CoveringPolicy::None,
        );
        let mut live = Vec::new();
        for i in 0..1_400u64 {
            let at = if i < 700 { (i % 7) as usize } else { 5 };
            // Strided and interleaved client ids, shared across brokers.
            let client = ((i % 23) << 32) + i % 3;
            let (x, y) = ((i * 37 % 88) as f64, (i * 53 % 88) as f64);
            let subscription = sub(&s, i, (x, x + 12.0), (y, y + 12.0));
            net.subscribe(at, client, &subscription).unwrap();
            live.push((at, client, subscription));
        }
        assert!(net.inspect(5, |b| b.local_table_slots().len()).unwrap() > 1);
        let events: Vec<Event> = (0..EventChunk::WIDTH)
            .map(|i| Event::new(&s, vec![(i * 13 % 100) as f64, (i * 29 % 100) as f64]).unwrap())
            .collect();
        let oracle = |event: &Event| {
            let mut pairs: Vec<(BrokerId, ClientId)> = live
                .iter()
                .filter(|(_, _, subscription)| subscription.matches(event))
                .map(|&(at, client, _)| (at, client))
                .collect();
            pairs.sort_unstable();
            pairs.dedup();
            pairs
        };
        let expected: Vec<_> = events.iter().map(oracle).collect();
        assert!(expected.iter().any(|pairs| pairs.len() > 20));
        for at in 0..net.topology().brokers() {
            let serial: Vec<_> = events.iter().map(|e| net.publish(at, e).unwrap()).collect();
            let short = net.publish_batch(at, &events[..SERIAL_BELOW - 1]).unwrap();
            let chunk = net.publish_batch(at, &events).unwrap();
            for lists in [&serial[..], &short[..], &chunk[..]] {
                for (list, expected) in lists.iter().zip(&expected) {
                    assert!(list.is_sorted_by(|a, b| a < b), "from {at}: {list:?}");
                    assert_eq!(list, expected, "from {at}");
                }
            }
        }
    }

    /// From six of the seven brokers of `balanced_tree(2, 2)` the walk
    /// meets the brokers out of id order and places their shares. Once the
    /// caller's scratch has grown, placing reuses it: a second round of
    /// walks from every broker keeps the allocation the first round left.
    #[test]
    fn placing_the_shares_keeps_the_scratch_allocation() {
        let s = schema();
        let net = network(
            Topology::balanced_tree(2, 2).unwrap(),
            &s,
            CoveringPolicy::None,
        );
        for at in 0..7 {
            let subscription = sub(&s, at as SubId, (0.0, 100.0), (0.0, 100.0));
            net.subscribe(at, 1, &subscription).unwrap();
        }
        let event = Event::new(&s, vec![50.0, 50.0]).unwrap();
        let mut triples = Vec::new();
        let walk = |at, triples: &mut Vec<Triple>| {
            let mut pairs = 0;
            let event = slice::from_ref(&event);
            let mut root = Root::mint();
            net.publish_chunks(root.token(), at, event, triples, |t, _| pairs = t.len())
                .unwrap();
            assert_eq!(pairs, 7, "from {at}");
            assert!(triples.is_sorted(), "from {at}: {triples:?}");
        };
        for at in 0..7 {
            walk(at, &mut triples);
        }
        let scratch = triples.as_ptr();
        for at in 0..7 {
            walk(at, &mut triples);
            assert_eq!(triples.as_ptr(), scratch, "the walk from {at} reallocated");
        }
    }

    /// What a publish sees mid-walk. Each trial steps one walk, under its
    /// writer lock, on a fresh overlay: the retraction of a subscription, or
    /// the subscribe of one more. Before each step and after the last, every
    /// event is published from every broker, alone and in one batch, and
    /// must reach what L ∩ L′ matches and nothing L ∪ L′ does not (L, L′: the
    /// live sets before and after the walk). A broker that took a retraction
    /// before the offer it makes safe breaks it.
    ///
    /// The overlays: nested squares spread over the brokers and clients (so
    /// a retraction re-advertises what a square held back), each retracted,
    /// and each copied to another broker and client. Then, at one leaf, one
    /// client's squares: an in-table witness leaving while it holds three
    /// local orphans (one of which the next demotes, two of which take a
    /// slot and go out), and a newcomer demoting two slots (one holding an
    /// orphan of its own).
    #[test]
    fn a_publish_between_walk_steps_delivers_between_the_live_sets() {
        type Home = (BrokerId, ClientId, Subscription);
        let s = schema();
        // A 4 × 4 grid, enough for the batch to take the rank kernel.
        let grid = |i: u32| f64::from(i * 25 + 10);
        let events: Vec<Event> = (0..16)
            .map(|i| Event::new(&s, vec![grid(i % 4), grid(i / 4)]).unwrap())
            .collect();
        assert!(events.len() >= SERIAL_BELOW);
        let matched = |homes: &[&Home], event| -> Vec<(BrokerId, ClientId)> {
            let hits = homes.iter().filter(|(.., s)| s.matches(event));
            hits.map(|&&(at, client, _)| (at, client)).collect()
        };
        // Square `id` spans `[lo, hi]` on both axes, at `(at, client)`.
        let square = |id: SubId, (lo, hi): (u32, u32), at, client| -> Home {
            let bounds = (f64::from(lo), f64::from(hi));
            (at, client, sub(&s, id, bounds, bounds))
        };
        // One trial: `live` subscribed, then the walk that retracts `live[i]`
        // (`Err(i)`) or subscribes `Ok(copy)`, stepped and published between.
        let trial = |name: &str, topology: &Topology, live: &[Home], verb: Result<Home, usize>| {
            let net = network(topology.clone(), &s, CoveringPolicy::ExactSfc);
            for (at, client, subscription) in live {
                net.subscribe(*at, *client, subscription).unwrap();
            }
            let after = match &verb {
                Err(i) => [&live[..*i], &live[i + 1..]].concat(),
                Ok(copy) => [live, slice::from_ref(copy)].concat(),
            };
            let mut root = Root::mint();
            let mut walk = match &verb {
                Err(i) => net.retraction(root.token(), live[*i].0, live[*i].2.id()),
                Ok((at, client, copy)) => net.subscription(root.token(), *at, *client, copy),
            }
            .unwrap();
            let both: Vec<&Home> = live.iter().filter(|h| after.contains(h)).collect();
            let either: Vec<&Home> = live.iter().chain(&after).collect();
            for step in 0.. {
                // Each event's deliveries, through the walk's own token (a
                // root would be a second) on the daemon's path.
                let mut publish = |at, events: &[Event]| {
                    let (mut lists, mut first) = (vec![Vec::new(); events.len()], 0);
                    let token = &mut walk.token;
                    net.publish_chunks(token, at, events, &mut Vec::new(), |triples, chunk| {
                        for &(broker, client, mask) in triples {
                            for_each_bit(mask, |i| match chunk {
                                1 => lists[first].push((broker, client | i as u64)),
                                _ => lists[first + i].push((broker, client)),
                            });
                        }
                        first += chunk;
                    })
                    .unwrap();
                    lists
                };
                for at in 0..topology.brokers() {
                    let batched = publish(at, &events);
                    for (event, batched) in events.iter().zip(batched) {
                        let serial = publish(at, slice::from_ref(event)).remove(0);
                        let (lower, upper) = (matched(&both, event), matched(&either, event));
                        let inside = |got: &Vec<_>| {
                            lower.iter().all(|p| got.contains(p))
                                && got.iter().all(|p| upper.contains(p))
                        };
                        assert!(
                            inside(&serial) && inside(&batched),
                            "{name}, step {step}, broker {at}, event {event}: serial \
                             {serial:?}, batched {batched:?}, bounds {lower:?} ⊆ · ⊆ {upper:?}"
                        );
                    }
                }
                if !walk.step(&net).unwrap() {
                    break;
                }
            }
            drop(walk);
            drop(root);
            assert_eq!(net.audit(), [], "{name}");
        };
        let lo = [0, 10, 20, 5, 40, 50, 0, 60];
        let hi = [90, 60, 30, 95, 80, 55, 40, 99];
        let topologies = [
            ("line(4)", Topology::line(4)),
            ("balanced_tree(2, 2)", Topology::balanced_tree(2, 2)),
            ("random_tree(6, 1)", Topology::random_tree(6, 1)),
            ("random_tree(7, 2)", Topology::random_tree(7, 2)),
            ("random_tree(8, 3)", Topology::random_tree(8, 3)),
        ];
        for (name, topology) in topologies {
            let topology = topology.unwrap();
            let n = topology.brokers();
            let live: Vec<Home> = (1..)
                .zip(lo.into_iter().zip(hi))
                .map(|(id, bounds): (SubId, _)| square(id, bounds, id as usize * 3 % n, id % 3))
                .collect();
            for (i, (at, client, square)) in live.iter().enumerate() {
                let copy = (
                    (at + 1) % n,
                    (client + 1) % 3,
                    square.with_id(square.id() + 100),
                );
                let id = square.id();
                trial(&format!("{name}, retract {id}"), &topology, &live, Err(i));
                trial(
                    &format!("{name}, subscribe {id}"),
                    &topology,
                    &live,
                    Ok(copy),
                );
            }
            // One client's squares at the last broker, a leaf, and one other
            // square elsewhere.
            let (leaf, other) = (n - 1, square(9, (30, 70), 0, 3));
            let witness = [(1, (0, 90)), (2, (20, 30)), (3, (10, 60)), (4, (65, 85))];
            let mut live: Vec<Home> = witness.map(|(id, b)| square(id, b, leaf, 7)).to_vec();
            live.push(other.clone());
            trial(&format!("{name}, witness leaves"), &topology, &live, Err(0));
            let slots = [(1, (10, 30)), (2, (15, 20)), (3, (40, 60))];
            let mut live: Vec<Home> = slots.map(|(id, b)| square(id, b, leaf, 7)).to_vec();
            live.push(other);
            let newcomer = square(4, (5, 70), leaf, 7);
            trial(
                &format!("{name}, newcomer demotes"),
                &topology,
                &live,
                Ok(newcomer),
            );
        }
    }

    /// The audit finds nothing on a small well-formed overlay, and exactly
    /// the one record broken on a fresh one, for each kind.
    #[test]
    fn the_audit_names_each_kind_of_broken_record() {
        let s = schema();
        let squares = [
            (1, 0.0, 90.0),
            (2, 20.0, 30.0),
            (3, 10.0, 60.0),
            (4, 92.0, 99.0),
        ];
        let [wide, narrow, mid, far] = squares.map(|(id, lo, hi)| sub(&s, id, (lo, hi), (lo, hi)));
        let ghost = narrow.with_id(9);
        // `wide` demotes `mid`, which went out first and is retracted, and
        // holds client 300's `narrow` back on the links; client 200's twin of
        // `wide` is held back on the links too. `mid` stays at home.
        let build = || {
            let net = network(Topology::line(3).unwrap(), &s, CoveringPolicy::ExactSfc);
            net.subscribe(0, 100, &mid).unwrap();
            net.subscribe(0, 100, &wide).unwrap();
            net.subscribe(0, 300, &narrow).unwrap();
            net.subscribe(0, 100, &far).unwrap();
            net.subscribe(0, 200, &wide.with_id(5)).unwrap();
            assert_eq!(net.audit(), []);
            net
        };
        let refile = |held: &mut Held, witness, subscription: &Subscription| {
            held.release(subscription.id());
            held.hold(witness, subscription.clone());
        };
        let link = |net: &BrokerNetwork, at, neighbor, plant: &dyn Fn(&mut Link)| {
            plant(net.cell(at).write(Root::mint().token()).link_mut(neighbor));
        };
        type Plant<'a> = &'a dyn Fn(&BrokerNetwork);
        let cases: [(Violation, Plant); 12] = [
            // Mirrored only.
            (Violation::Unmirrored(0, Some(1), 4), &|net| {
                link(net, 0, 1, &|link| {
                    link.held.witness_of.insert(4, 1);
                });
            }),
            // Listed under `wide`, mirrored to `far`: still on the link.
            (Violation::Unmirrored(0, Some(1), 2), &|net| {
                link(net, 0, 1, &|link| {
                    link.held.witness_of.insert(2, 4);
                });
            }),
            (Violation::UncoveringWitness(0, Some(1), 4, 2), &|net| {
                link(net, 0, 1, &|link| refile(&mut link.held, 4, &narrow));
            }),
            (Violation::UnsentWitness(1, 0, 1, 2), &|net| {
                link(net, 1, 0, &|link| link.held.hold(1, narrow.clone()));
            }),
            (Violation::SentAndHeld(0, 1, 4), &|net| {
                link(net, 0, 1, &|link| link.held.hold(1, far.clone()));
            }),
            (Violation::DeadId(0, 1, 9), &|net| {
                link(net, 0, 1, &|link| link.held.hold(1, ghost.clone()));
            }),
            (Violation::OneSidedRoute(0, 1, 1), &|net| {
                net.cell(1)
                    .write(Root::mint().token())
                    .remove_received(0, 1);
            }),
            (Violation::ForeignWitness(0, 5, 3), &|net| {
                refile(&mut net.cell(0).write(Root::mint().token()).held, 5, &mid);
            }),
            // Held at home behind `wide`, yet on the link.
            (Violation::Misadvertised(0, 1, 3), &|net| {
                link(net, 0, 1, &|link| link.held.hold(1, mid.clone()));
            }),
            // In a table, yet missing from the link.
            (Violation::Misadvertised(0, 1, 2), &|net| {
                link(net, 0, 1, &|link| {
                    link.held.release(2);
                });
            }),
            (Violation::Misplaced(Some(2), 9), &|net| {
                net.cell(2)
                    .write(Root::mint().token())
                    .add_local(100, ghost.clone());
            }),
            (Violation::Misplaced(None, 9), &|net| {
                net.registered.lock(Root::mint().token()).0.insert(9, 100);
            }),
        ];
        for (violation, plant) in cases {
            let net = build();
            plant(&net);
            assert_eq!(net.audit(), [violation]);
        }
        // A dead held-back entry is still checked as a live one is.
        let net = build();
        link(&net, 1, 0, &|link| link.held.hold(1, ghost.clone()));
        let unsent = Violation::UnsentWitness(1, 0, 1, 9);
        assert_eq!(net.audit(), [Violation::DeadId(1, 0, 9), unsent]);
    }

    /// Under `CoveringPolicy::None` a subscription a slot of its own client
    /// covers is still sent on every link, and retracted from every link
    /// when it goes; a local subscription missing from a link is a breach.
    #[test]
    fn without_covering_a_locally_covered_subscription_still_floods() {
        let s = schema();
        let net = network(Topology::star(3).unwrap(), &s, CoveringPolicy::None);
        let wide = sub(&s, 1, (0.0, 90.0), (0.0, 90.0));
        let narrow = sub(&s, 2, (20.0, 30.0), (20.0, 30.0));
        net.subscribe(0, 100, &wide).unwrap();
        net.subscribe(0, 100, &narrow).unwrap();
        assert_eq!(net.inspect(0, |b| b.held.witness(2)).unwrap(), Some(1));
        for at in [1, 2] {
            assert_eq!(net.inspect(at, Broker::routing_table_entries).unwrap(), 2);
        }
        assert_eq!(net.metrics().subscription_messages, 4);
        assert_eq!(net.audit(), []);
        net.unsubscribe(0, 2).unwrap();
        assert_eq!(net.metrics().unsubscription_messages, 2);
        for at in [1, 2] {
            assert_eq!(net.inspect(at, Broker::routing_table_entries).unwrap(), 1);
        }
        // Registered and held at home, but on no link.
        net.registered.lock(Root::mint().token()).0.insert(2, 100);
        net.cell(0)
            .write(Root::mint().token())
            .add_local(100, narrow);
        let mut found = net.audit();
        found.sort_by_key(|violation| format!("{violation:?}"));
        let missing = |neighbor| Violation::Misadvertised(0, neighbor, 2);
        assert_eq!(found, [missing(1), missing(2)]);
    }

    #[test]
    fn publish_without_subscribers_stays_local() {
        let s = schema();
        let net = network(Topology::star(5).unwrap(), &s, CoveringPolicy::ExactSfc);
        let e = Event::new(&s, vec![1.0, 1.0]).unwrap();
        assert!(net.publish(4, &e).unwrap().is_empty());
        assert_eq!(net.metrics().event_messages, 0);
    }
}
