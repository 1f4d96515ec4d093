//! Differential property test for the brokers' match tables: under
//! interleaved subscribe / unsubscribe / publish / publish_batch, serial
//! delivery == batched delivery (short bursts, which take the serial walk,
//! and long ones, which take the rank kernel) == a linear
//! `Subscription::matches` scan over the live set (pairs deduped). After
//! every subscribe and unsubscribe `BrokerNetwork::audit` must find the
//! overlay well formed — the witness each held-back subscription is filed
//! under included — and with everything unsubscribed that leaves nothing.
//!
//! About a third of the subscriptions are shrunk copies of a live one, with
//! its broker and client: raw-covered by it, so every copy must be held back
//! off its broker's local tables (`Model::copy` checks that it takes no
//! slot), and the kernels must still deliver what it matches when its
//! witness goes. Every case takes the held path at least once, under every
//! policy and value grid.
//!
//! The schema is `[0, 64]` x 6 bits, so an integer value sits in grid cell
//! `value` exactly. Under each policy, some cases draw every bound and event
//! value as an integer in `0..=63` and some in quarter steps: four to a
//! cell, so the serial kernel's grid filter passes, and the rank kernel's
//! cell tables leave ambiguous, slots that only the raw compare can tell
//! apart. Under `ExactSfc` quarter steps also make subscriptions that cover
//! one another on the grid but not on raw bounds; a link must send both,
//! since the oracle is exact and has no cell-boundary slack.
//!
//! A second property pins the daemon's answer path to the pair lists: the
//! `Deliveries` frames a served network writes for a pipelined burst are
//! byte for byte the encoded lists `publish_batch` returns on a twin
//! network, they decode back to those lists, and both networks' counters
//! agree.

use acd_broker::wire::{encode_frame, read_frame, Frame};
use acd_broker::{
    Broker, BrokerConfig, BrokerDaemon, BrokerId, BrokerNetwork, ClientId, DaemonOptions, Topology,
};
use acd_covering::CoveringPolicy;
use acd_subscription::{Event, Schema, SubId, Subscription};
use proptest::prelude::*;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;

const BROKERS: usize = 3;

/// `BrokerNetwork::publish_batch`'s crossover: a chunk shorter than this
/// takes the serial walk. Private there, so mirrored here.
const SERIAL_BELOW: usize = 14;

/// How a case draws its bounds and values: whole cells, or four steps to a
/// cell.
#[derive(Clone, Copy, Debug)]
enum Values {
    Integers,
    Quarters,
}

fn schema() -> Schema {
    Schema::builder()
        .attribute("x", 0.0, 64.0)
        .attribute("y", 0.0, 64.0)
        .bits_per_attribute(6)
        .build()
        .unwrap()
}

/// The live set, as the oracle sees it.
struct Model {
    schema: Schema,
    live: Vec<(BrokerId, ClientId, Subscription)>,
    next_id: SubId,
    /// One client per fresh subscription (only a copy shares its parent's)
    /// or five shared clients (a client's matches are adjacent slots and
    /// must collapse). A client's subscriptions share one local table, so
    /// the shared client that owns the initial population takes that table
    /// across the block seams.
    shared_clients: bool,
    values: Values,
    /// Shrunk copies registered.
    copies: usize,
    /// Subscribes after which their broker held more subscriptions back
    /// off its local tables than before: every copy, and the rest that a
    /// live subscription of their client covers or that cover one.
    held_hits: usize,
}

impl Model {
    /// A coordinate in `[0, 64)` derived from `r`.
    fn coordinate(&self, r: u64) -> f64 {
        match self.values {
            Values::Integers => (r % 64) as f64,
            Values::Quarters => (r % 256) as f64 / 4.0,
        }
    }

    /// Registers a fresh subscription with bounds derived from `a`, `b`.
    fn subscribe(&mut self, net: &BrokerNetwork, at: BrokerId, a: u64, b: u64) {
        let range = |r: u64| {
            let (p, q) = (self.coordinate(r), self.coordinate(r >> 8));
            (p.min(q), p.max(q))
        };
        let client = if self.shared_clients {
            a % 5
        } else {
            self.next_id
        };
        self.register(net, at, client, &[range(a), range(b)]);
    }

    /// Registers a copy of a live subscription, picked by `pick`, at its
    /// broker for its client, each bound moved inward by 0 to 2 steps of
    /// the value grid (0 on both sides: an equal twin). Its parent, or the
    /// witness the parent is held behind, raw-covers it, so it takes no
    /// slot.
    fn copy(&mut self, net: &BrokerNetwork, pick: u64) {
        if self.live.is_empty() {
            return;
        }
        let (at, client, parent) = &self.live[pick as usize % self.live.len()];
        let (at, client) = (*at, *client);
        let step = match self.values {
            Values::Integers => 1.0,
            Values::Quarters => 0.25,
        };
        let inward = |(lo, hi): (f64, f64), r: u64| {
            let lo = (lo + (r % 3) as f64 * step).min(hi);
            (lo, (hi - (r / 3 % 3) as f64 * step).max(lo))
        };
        let bounds = parent.raw_bounds();
        let bounds = [inward(bounds[0], pick >> 8), inward(bounds[1], pick >> 16)];
        let slots = local_slots(net, at);
        self.register(net, at, client, &bounds);
        assert_eq!(local_slots(net, at), slots, "a copy takes no slot");
        self.copies += 1;
    }

    fn register(
        &mut self,
        net: &BrokerNetwork,
        at: BrokerId,
        client: ClientId,
        bounds: &[(f64, f64)],
    ) {
        let id = self.next_id;
        self.next_id += 1;
        let sub = Subscription::from_raw_bounds(&self.schema, id, bounds).unwrap();
        let held = held_locally(net, at);
        net.subscribe(at, client, &sub).unwrap();
        self.held_hits += usize::from(held_locally(net, at) > held);
        self.live.push((at, client, sub));
        assert_eq!(net.audit(), []);
    }

    fn unsubscribe(&mut self, net: &BrokerNetwork, pick: u64) {
        if self.live.is_empty() {
            return;
        }
        let (at, _, sub) = self.live.swap_remove(pick as usize % self.live.len());
        net.unsubscribe(at, sub.id()).unwrap();
        assert_eq!(net.audit(), []);
    }

    /// Three events: one on every `lo` of a live subscription, one on every
    /// `hi`, one anywhere.
    fn events(&self, pick: u64, anywhere: u64) -> Vec<Event> {
        let mut values = vec![vec![
            self.coordinate(anywhere),
            self.coordinate(anywhere >> 8),
        ]];
        if !self.live.is_empty() {
            let bounds = self.live[pick as usize % self.live.len()].2.raw_bounds();
            values.push(bounds.iter().map(|&(lo, _)| lo).collect());
            values.push(bounds.iter().map(|&(_, hi)| hi).collect());
        }
        values
            .into_iter()
            .map(|v| Event::new(&self.schema, v).unwrap())
            .collect()
    }

    fn oracle(&self, event: &Event) -> Vec<(BrokerId, ClientId)> {
        let mut pairs: Vec<(BrokerId, ClientId)> = self
            .live
            .iter()
            .filter(|(_, _, sub)| sub.matches(event))
            .map(|&(at, client, _)| (at, client))
            .collect();
        pairs.sort_unstable();
        pairs.dedup();
        pairs
    }

    /// Serial == batch == oracle for `events` published at `at`: as they
    /// are (a burst this short takes the serial walk inside `publish_batch`
    /// too), then repeated to two full chunks and a tail on either side of
    /// the crossover, so that the rank kernel, the serial tail and the seam
    /// between them all answer for every event.
    fn check(&self, net: &BrokerNetwork, at: BrokerId, events: &[Event]) {
        let expected: Vec<_> = events.iter().map(|event| self.oracle(event)).collect();
        for (event, expected) in events.iter().zip(&expected) {
            assert_eq!(
                &net.publish(at, event).unwrap(),
                expected,
                "serial, {event}"
            );
        }
        if events.is_empty() {
            return;
        }
        for len in [
            events.len(),
            2 * 64 + SERIAL_BELOW - 1,
            2 * 64 + SERIAL_BELOW + 1,
        ] {
            let burst: Vec<Event> = events.iter().cycle().take(len).cloned().collect();
            let batched = net.publish_batch(at, &burst).unwrap();
            assert_eq!(batched.len(), len);
            for (i, batch) in batched.iter().enumerate() {
                let event = &events[i % events.len()];
                let expected = &expected[i % events.len()];
                assert_eq!(batch, expected, "batched, {event} at {i} of {len}");
            }
        }
    }
}

/// The slots of broker `at`'s local tables.
fn local_slots(net: &BrokerNetwork, at: BrokerId) -> usize {
    net.inspect(at, |broker| broker.local_table_slots().iter().sum())
        .unwrap()
}

/// The local subscriptions broker `at` holds back off its tables, read
/// under one broker guard.
fn held_locally(net: &BrokerNetwork, at: BrokerId) -> usize {
    let held = |broker: &Broker| {
        broker.local_subscriptions() - broker.local_table_slots().iter().sum::<usize>()
    };
    net.inspect(at, held).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn serial_batch_and_linear_scan_agree_under_churn(
        // Subscriptions registered at broker 0 before the interleaving
        // starts (every third a copy, which takes no slot), around the
        // 64-slot block seams so the churn below moves its local table and
        // broker 1's routing table across them. With shared clients they
        // are all client 0's; with one client each there are 4x as many,
        // and they still fit one local table under its 512-slot cap.
        initial in prop_oneof![Just(0usize), Just(1), Just(63), Just(64), Just(65), Just(129)],
        shared_clients in any::<bool>(),
        (policy, values) in prop_oneof![
            Just((CoveringPolicy::ExactSfc, Values::Integers)),
            Just((CoveringPolicy::ExactSfc, Values::Quarters)),
            Just((CoveringPolicy::None, Values::Integers)),
            Just((CoveringPolicy::None, Values::Quarters)),
        ],
        seed in any::<u64>(),
        ops in prop::collection::vec((0u8..6, any::<u64>(), any::<u64>()), 1..40),
    ) {
        let schema = schema();
        let net = BrokerConfig::new(Topology::line(BROKERS).unwrap(), &schema)
            .policy(policy)
            .build()
            .unwrap();
        let mut model = Model {
            schema,
            live: Vec::new(),
            next_id: 1,
            shared_clients,
            values,
            copies: 0,
            held_hits: 0,
        };
        let mut mix = seed;
        let mut next = || {
            mix = mix.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            mix >> 16
        };
        for i in 0..initial * if shared_clients { 1 } else { 4 } {
            if i % 3 == 2 {
                model.copy(&net, next());
            } else {
                model.subscribe(&net, 0, next() / 5 * 5, next());
            }
        }
        model.check(&net, 2, &model.events(next(), next()));

        for (kind, a, b) in ops {
            let at = a as usize % BROKERS;
            match kind {
                // Subscribes at broker 0 and unsubscribes move its local
                // table (and its neighbors' routing tables) across a seam.
                0 => model.subscribe(&net, 0, a, b),
                1 => model.subscribe(&net, at, a, b),
                2 => model.unsubscribe(&net, a),
                5 => model.copy(&net, a),
                _ => model.check(&net, at, &model.events(a, b)),
            }
        }
        // At least one copy, held behind the subscription it copies.
        model.subscribe(&net, next() as usize % BROKERS, next(), next());
        model.copy(&net, model.live.len() as u64 - 1);
        prop_assert!(model.held_hits >= model.copies && model.copies > 0);

        // Every live subscription's own corners, in one batch longer than
        // one 64-event chunk when the table is.
        let corners: Vec<Event> = (0..model.live.len() as u64)
            .flat_map(|i| model.events(i, i))
            .collect();
        model.check(&net, 1, &corners);

        // A foreign-schema event is delivered nowhere, alone or in a batch.
        let other = Schema::builder().attribute("x", 0.0, 64.0).attribute("y", 0.0, 64.0)
            .bits_per_attribute(5).build().unwrap();
        let foreign = Event::new(&other, vec![1.0, 1.0]).unwrap();
        prop_assert!(net.publish(0, &foreign).unwrap().is_empty());
        // (The oracle refuses it as well: `matches` is false across schemas.)
        let mut mixed = model.events(0, 0);
        mixed.insert(1, foreign);
        model.check(&net, 0, &mixed);

        // Quiescence: registry empty and the last audit clean, so no record.
        while !model.live.is_empty() {
            model.unsubscribe(&net, next());
        }
        let metrics = net.metrics();
        prop_assert_eq!(metrics.subscriptions_registered, metrics.unsubscriptions);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every client holds one subscription over `[0, 48]` on both
    /// attributes, so an event inside that square reaches every client;
    /// the rest hold ranges inside `[0, 56]`, so an event with a value
    /// above 56 reaches nobody and is answered with an empty frame. Bursts
    /// cover both sides of `SERIAL_BELOW` and of the 64-event chunk seam.
    #[test]
    fn daemon_frames_equal_the_encoded_lists_and_counters_agree(
        clients in 1u64..40,
        policy in prop_oneof![Just(CoveringPolicy::None), Just(CoveringPolicy::ExactSfc)],
        subs in prop::collection::vec((any::<u64>(), any::<u64>(), any::<u64>()), 0..120),
        seed in any::<u64>(),
    ) {
        let schema = schema();
        let topology = Topology::balanced_tree(2, 2).unwrap();
        let brokers = topology.brokers();
        let build = || BrokerConfig::new(topology.clone(), &schema).policy(policy).build().unwrap();
        let (served, twin) = (Arc::new(build()), build());
        let mut id = 0;
        let mut register = |at: usize, client: ClientId, bounds: &[(f64, f64)]| {
            id += 1;
            let sub = Subscription::from_raw_bounds(&schema, id, bounds).unwrap();
            served.subscribe(at, client, &sub).unwrap();
            twin.subscribe(at, client, &sub).unwrap();
        };
        for client in 0..clients {
            register((client * 5 % 7) as usize, client * 3, &[(0.0, 48.0), (0.0, 48.0)]);
        }
        for &(at, client, r) in &subs {
            let range = |r: u64| {
                let (p, q) = ((r % 57) as f64, (r >> 8) as f64 % 57.0);
                (p.min(q), p.max(q))
            };
            register(at as usize % brokers, client % clients * 3, &[range(r), range(r >> 16)]);
        }

        let options = DaemonOptions {
            workers: 1,
            ..DaemonOptions::default()
        };
        let daemon = BrokerDaemon::start_with(Arc::clone(&served), "127.0.0.1:0", options).unwrap();
        let mut stream = TcpStream::connect(daemon.local_addr()).unwrap();
        let mut scratch = Vec::new();
        let hello = read_frame(&mut stream, &mut scratch).unwrap();
        prop_assert!(matches!(hello, Frame::Hello { .. }));
        let mut mix = seed;
        let mut next = || {
            mix = mix.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            mix >> 16
        };
        let (mut request, mut frame) = (Vec::new(), Vec::new());
        for len in [0, 1, SERIAL_BELOW - 1, SERIAL_BELOW, 64, 65, 128, 200] {
            let at = next() as usize % brokers;
            let events: Vec<Event> = (0..len)
                .map(|_| {
                    let (x, y) = ((next() % 64) as f64, (next() % 64) as f64);
                    Event::new(&schema, vec![x, y]).unwrap()
                })
                .collect();
            let lists = twin.publish_batch(at, &events).unwrap();
            let mut expected = Vec::new();
            request.clear();
            for (event, pairs) in events.iter().zip(&lists) {
                let values = event.values().to_vec();
                encode_frame(&Frame::Publish { at, values }, &mut frame);
                request.extend_from_slice(&frame);
                encode_frame(&Frame::Deliveries { pairs: pairs.clone() }, &mut frame);
                expected.extend_from_slice(&frame);
            }
            stream.write_all(&request).unwrap();
            let mut answered = vec![0; expected.len()];
            stream.read_exact(&mut answered).unwrap();
            prop_assert_eq!(&answered, &expected, "{} events from broker {}", len, at);
            let mut frames = answered.as_slice();
            for pairs in &lists {
                let decoded = read_frame(&mut frames, &mut scratch).unwrap();
                prop_assert_eq!(&decoded, &Frame::Deliveries { pairs: pairs.clone() });
            }
            prop_assert_eq!(served.metrics(), twin.metrics(), "{} events from broker {}", len, at);
        }
    }
}
