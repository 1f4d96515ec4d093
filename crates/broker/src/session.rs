//! One connection's side of the daemon protocol as a value: a [`Session`]
//! takes a round of request frames — one request, or a burst of publishes
//! at one broker — and appends its response frames to a buffer, with no
//! socket, thread or clock of its own. The blocking shell in
//! [`crate::service`] reads the frames, ends the rounds and writes the
//! answers; a test steps several sessions in one thread the same way.
//!
//! * **Sessions are connection-scoped.** Every subscription a connection
//!   registers is tracked in the session map; when the connection ends,
//!   [`Session::on_close`] retracts its surviving registrations exactly
//!   like `unsubscribe` (the *drained-state invariant*).
//! * **One path per mutation, acked only once durable.** `Subscribe` and
//!   `Resubscribe` run `install`; `Unsubscribe` and `Retract` run
//!   `retract`. Each holds the daemon's one mutation lock, the [`Ledger`],
//!   across its overlay call and journals its record before the ack.
//! * **Replay is idempotent.** [`Frame::Resubscribe`]/[`Frame::Retract`]
//!   carry the client's session *epoch*; a stale one is absorbed, so a
//!   stalled request from a pre-reconnect connection can never clobber
//!   state the reconnected client already replayed.
//! * **Recovery installs the fold of `snapshot ∘ journal`**, covers first;
//!   shutdown writes the fold back as the snapshot. What it restores is
//!   owned by no connection until a client takes it over by resubscribing.

use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};

use acd_covering::storage::{
    read_snapshot, write_snapshot, JournalRecord, StorageError, SubscriptionJournal,
};
use acd_subscription::{Event, SubId, Subscription};

use crate::broker::{BrokerId, ClientId};
use crate::error::{BrokerError, ServiceError};
use crate::lock::Root;
use crate::metrics::MetricCounters;
use crate::network::{covering_order, BrokerNetwork, Triple};
use crate::service::DaemonState;
use crate::wire::{append_frame, put_deliveries_frames, Frame};

/// The append-only journal inside the daemon's data directory.
const JOURNAL_FILE: &str = "journal.acd";

/// The graceful-shutdown snapshot inside the daemon's data directory.
const SNAPSHOT_FILE: &str = "snapshot.acd";

/// Session owner of subscriptions restored from the data directory. No
/// real connection ever gets this id (they count up from zero), so a
/// recovered registration is never swept by a closing session — it lives
/// until a client retracts it or takes it over by resubscribing.
const RECOVERED_CONN: u64 = u64::MAX;

/// The answer to each publish drained behind a malformed one.
const NOT_EXECUTED: &str =
    "not executed: aborted after an earlier malformed publish in the pipelined batch";

/// One tracked subscription registration: which connection owns it, the
/// session epoch that installed it, and its home broker (for retraction).
#[derive(Debug, Clone, Copy)]
pub(crate) struct SessionEntry {
    conn: u64,
    epoch: u64,
    at: BrokerId,
}

/// What the daemon's mutations change besides the overlay, behind its one
/// mutation lock (`DaemonState::ledger`): which session owns each
/// subscription id, and the durable half.
#[derive(Debug, Default)]
pub(crate) struct Ledger {
    pub(crate) sessions: HashMap<SubId, SessionEntry>,
    /// `None` without a data directory.
    persistence: Option<Persistence>,
}

/// The daemon's durable half: the open journal and its directory. It holds
/// no live set (recovery and compaction [`fold`] one from the files), and a
/// session the daemon ends leaves the session map but stays durable.
#[derive(Debug)]
struct Persistence {
    dir: PathBuf,
    journal: SubscriptionJournal,
}

/// How a session ended: the client went away (EOF, a protocol error,
/// eviction, an idle reap, a panic), or the daemon's shutdown ended it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Close {
    Client,
    Daemon,
}

/// One connection's protocol state: its id, which owns the registrations
/// it makes, and the scratch its publish bursts reuse.
#[derive(Debug, Default)]
pub(crate) struct Session {
    pub(crate) conn: u64,
    events: Vec<Event>,
    triples: Vec<Triple>,
    payloads: Vec<Vec<u8>>,
}

impl Session {
    /// The session of connection `conn`.
    pub(crate) fn new(conn: u64) -> Session {
        Session {
            conn,
            ..Session::default()
        }
    }

    /// Executes one round and appends one response frame per request to
    /// `out`, in order, leaving `requests` empty. Broker-level rejections
    /// are answered [`Frame::Err`] (the connection continues); a request no
    /// client may send there is a hard error (the connection closes).
    ///
    /// A round that starts with a `Publish` is a burst: publishes at that
    /// one broker. Only its valid prefix executes, as one batch whose
    /// chunks go from the match kernel straight to the frame writer. The
    /// first malformed publish answers its own error and the rest answer
    /// one *without executing*: the counters equal the `Deliveries` frames
    /// the client acks (`BatchError::acked`), never the requests it
    /// pipelined.
    pub(crate) fn on_round(
        &mut self,
        state: &DaemonState,
        requests: &mut Vec<Frame>,
        out: &mut Vec<u8>,
    ) -> Result<(), ServiceError> {
        if let Some(&Frame::Publish { at, .. }) = requests.first() {
            let network = &state.network;
            let total = requests.len();
            self.events.clear();
            let mut refused = None;
            for request in requests.drain(..) {
                let values = match request {
                    Frame::Publish { at: origin, values } if origin == at => values,
                    other => return Err(unexpected(&other)),
                };
                match Event::new(network.schema(), values) {
                    Ok(event) => self.events.push(event),
                    Err(e) => {
                        refused = Some(BrokerError::from(e).to_string());
                        break;
                    }
                }
            }
            let payloads = &mut self.payloads;
            let answer = |triples: &[_], n| put_deliveries_frames(out, triples, n, payloads);
            let (events, triples) = (&self.events, &mut self.triples);
            if let Err(e) =
                network.publish_chunks(Root::mint().token(), at, events, triples, answer)
            {
                // The burst shares one origin broker, so a network-level
                // refusal (unknown broker) applies to every event, and it
                // came before any counter moved.
                for _ in &self.events {
                    let message = e.to_string();
                    append_frame(&Frame::Err { message }, out);
                }
            }
            if let Some(refused) = refused {
                let tail = (self.events.len() + 1..total).map(|_| NOT_EXECUTED.to_string());
                for message in std::iter::once(refused).chain(tail) {
                    append_frame(&Frame::Err { message }, out);
                }
            }
            return Ok(());
        }
        for request in requests.drain(..) {
            let outcome = match request {
                Frame::Subscribe {
                    at,
                    client,
                    id,
                    bounds,
                } => install(state, self.conn, at, client, id, bounds, None),
                Frame::Resubscribe {
                    at,
                    client,
                    id,
                    bounds,
                    epoch,
                } => install(state, self.conn, at, client, id, bounds, Some(epoch)),
                Frame::Unsubscribe { at, id } => retract(state, at, id, None),
                Frame::Retract { at, id, epoch } => retract(state, at, id, Some(epoch)),
                other => return Err(unexpected(&other)),
            };
            let reply = match outcome {
                Ok(()) => Frame::Ok,
                Err(message) => Frame::Err { message },
            };
            append_frame(&reply, out);
        }
        Ok(())
    }

    /// Ends the session. A client that went away has every registration
    /// the session still owns retracted — exactly like `unsubscribe`, so an
    /// evicted or vanished client leaves no routing entries behind. A
    /// session the daemon ended only forgets the ownership. Registrations
    /// another session took over are left alone.
    ///
    /// `cause` is the session's *own* end, not the daemon's shutdown flag:
    /// keying off the flag would let a genuine client disconnect that races
    /// a graceful shutdown skip its journal entry and leave an ownerless
    /// registration in the shutdown snapshot.
    pub(crate) fn on_close(&self, state: &DaemonState, cause: Close) {
        let mut root = Root::mint();
        let (mut ledger, mut token) = state.ledger.lock(root.token());
        let owned = ledger
            .sessions
            .extract_if(|_, entry| entry.conn == self.conn);
        for (id, SessionEntry { at, .. }) in owned.collect::<Vec<_>>() {
            // A daemon-initiated end retracts nothing: the registrations
            // must survive into the shutdown snapshot so a restarted daemon
            // serves them again (clients take them over by resubscribing).
            if cause == Close::Daemon {
                continue;
            }
            // A vanished *client* is retracted and journaled (best-effort)
            // like an unsubscribe; racing an in-process unsubscribe is
            // benign: the entry is gone either way.
            let _ = state.network.unsubscribe_under(&mut token, at, id);
            let _ = ledger.journal_append(JournalRecord::Unsubscribe { at: at as u64, id });
        }
    }
}

/// The hard error for a request frame a session does not take there.
fn unexpected(frame: &Frame) -> ServiceError {
    ServiceError::UnexpectedFrame {
        kind: frame.kind_name().to_string(),
    }
}

/// Folds `snapshot ∘ journal` from the data directory, builds each
/// subscription as it consumes the fold, and installs them in
/// [`covering_order`], covers first, so every link holds back all it can
/// and sends only the maximal subscriptions on its side. It seeds the
/// session map (owner [`RECOVERED_CONN`]) so reconnecting clients take their
/// registrations over with an ordinary `Resubscribe`. Nothing of the fold
/// outlives the call.
pub(crate) fn recover(network: &BrokerNetwork, dir: &Path) -> Result<Ledger, ServiceError> {
    std::fs::create_dir_all(dir)
        .map_err(|e| ServiceError::Io(format!("create {}: {e}", dir.display())))?;
    let storage = |e: StorageError| ServiceError::Io(e.to_string());
    let snapshot = read_snapshot(&dir.join(SNAPSHOT_FILE)).map_err(storage)?;
    let (journal, tail) = SubscriptionJournal::open(&dir.join(JOURNAL_FILE)).map_err(storage)?;
    let live = fold(snapshot, tail);
    let mut installs = Vec::with_capacity(live.len());
    for (id, record) in live {
        let JournalRecord::Subscribe {
            at, client, bounds, ..
        } = record
        else {
            continue;
        };
        let subscription = Subscription::from_raw_bounds(network.schema(), id, &bounds)
            .map_err(|e| ServiceError::Io(format!("recovered subscription {id}: {e}")))?;
        installs.push((subscription, at as BrokerId, client));
    }
    installs.sort_unstable_by(|a, b| covering_order(&a.0, &b.0));
    let (conn, epoch) = (RECOVERED_CONN, 0);
    let mut sessions = HashMap::with_capacity(installs.len());
    for (subscription, at, client) in installs {
        network.subscribe(at, client, &subscription)?;
        sessions.insert(subscription.id(), SessionEntry { conn, epoch, at });
    }
    let dir = dir.to_owned();
    let persistence = Some(Persistence { dir, journal });
    Ok(Ledger {
        sessions,
        persistence,
    })
}

/// Folds the snapshot on disk with the journal's acked records, writes the
/// fold as the new snapshot and resets the journal; a no-op without a data
/// directory. Only for a quiescent state: no session may be mutating it.
pub(crate) fn compact(state: &DaemonState) -> Result<(), StorageError> {
    let mut root = Root::mint();
    let mut ledger = state.ledger.lock(root.token()).0;
    let Some(Persistence { dir, journal }) = ledger.persistence.as_mut() else {
        return Ok(());
    };
    let path = dir.join(SNAPSHOT_FILE);
    // The acked prefix, read through the open handle: never the remains of
    // a failed append behind it, which a re-open would replay.
    let live = fold(read_snapshot(&path)?, journal.read_acked()?);
    let records: Vec<JournalRecord> = live.into_values().collect();
    write_snapshot(&path, &records)?;
    journal.reset()
}

impl Ledger {
    /// Appends one record to the journal — a no-op without a data
    /// directory. It takes the ledger, so it runs under the daemon lock, and
    /// appends land in the order the mutations were serialised in. A failure
    /// comes back as the message of the `Err` reply that replaces the ack.
    fn journal_append(&mut self, record: JournalRecord) -> Result<(), String> {
        let Some(persistence) = self.persistence.as_mut() else {
            return Ok(());
        };
        persistence
            .journal
            .append(&record)
            .map_err(|e| format!("journal write failed: {e}"))
    }
}

/// The live set `snapshot` then `journal` leave, by id: the last `Subscribe`
/// of an id wins and an `Unsubscribe` drops it.
fn fold(
    snapshot: Option<Vec<JournalRecord>>,
    journal: Vec<JournalRecord>,
) -> BTreeMap<SubId, JournalRecord> {
    let mut live = BTreeMap::new();
    for record in snapshot.unwrap_or_default().into_iter().chain(journal) {
        match record {
            JournalRecord::Subscribe { id, .. } => live.insert(id, record),
            JournalRecord::Unsubscribe { id, .. } => live.remove(&id),
        };
    }
    live
}

/// Registers subscription `id` (bounds in attribute order, so no attribute
/// is looked up by name) for `client` at broker `at`, owned by connection
/// `conn`, and acks it only once it is journaled. A `Subscribe` passes no
/// `epoch`; a `Resubscribe` passes its session epoch and first takes over
/// the id's current registration: a stale epoch is absorbed without
/// acting, a current (retry) or newer (reconnect) one retracts the old
/// registration so the home broker can move. Every `Err` is the reply's
/// message; schema problems are one too, not a connection error.
fn install(
    state: &DaemonState,
    conn: u64,
    at: BrokerId,
    client: ClientId,
    id: SubId,
    bounds: Vec<(f64, f64)>,
    epoch: Option<u64>,
) -> Result<(), String> {
    let subscription = Subscription::from_raw_bounds(state.network.schema(), id, &bounds)
        .map_err(|e| e.to_string())?;
    let (network, counters) = (&state.network, state.network.counters());
    let mut root = Root::mint();
    let (mut ledger, mut token) = state.ledger.lock(root.token());
    // Only a `Resubscribe` looks for a registration to take over.
    let previous = epoch.and_then(|_| ledger.sessions.get(&id).copied());
    if let (Some(epoch), Some(entry)) = (epoch, previous) {
        if epoch < entry.epoch {
            // A stalled replay from a pre-reconnect connection: the newer
            // session owns this id.
            MetricCounters::bump(&counters.client_retries);
            return Ok(());
        }
        ledger.sessions.remove(&id);
        match network.unsubscribe_under(&mut token, entry.at, id) {
            Ok(()) | Err(BrokerError::UnknownSubscription { .. }) => {}
            Err(e) => return Err(e.to_string()),
        }
        let counter = if entry.conn == conn {
            &counters.client_retries
        } else {
            &counters.client_reconnects
        };
        MetricCounters::bump(counter);
    }
    if let Err(e) = network.subscribe_under(&mut token, at, client, &subscription) {
        if previous.is_some() {
            // The reinstall failed after the old registration was
            // retracted: bring the durable state along (best effort — the
            // reply is already an error).
            let _ = ledger.journal_append(JournalRecord::Unsubscribe { at: at as u64, id });
        }
        return Err(e.to_string());
    }
    let record = JournalRecord::Subscribe {
        at: at as u64,
        client,
        id,
        bounds,
    };
    if let Err(message) = ledger.journal_append(record) {
        // Durable-ack discipline: an unjournaled mutation is not
        // acknowledged — roll it back and report.
        let _ = network.unsubscribe_under(&mut token, at, id);
        return Err(message);
    }
    let epoch = epoch.unwrap_or(0);
    ledger.sessions.insert(id, SessionEntry { conn, epoch, at });
    Ok(())
}

/// Retracts subscription `id`, whichever connection registered it, and
/// acks once the retraction is journaled. An `Unsubscribe` passes no
/// `epoch` and names the home broker `at`. A `Retract` passes its session
/// epoch: a stale one is absorbed without acting, otherwise the session
/// entry (if any) is dropped and names the home broker, and an id already
/// gone counts as a retried success. A failed journal write turns the ack
/// into an error so the client retries — retraction is idempotent, so the
/// retry converges.
fn retract(
    state: &DaemonState,
    mut at: BrokerId,
    id: SubId,
    epoch: Option<u64>,
) -> Result<(), String> {
    let counters = state.network.counters();
    let mut root = Root::mint();
    let (mut ledger, mut token) = state.ledger.lock(root.token());
    let previous = epoch.and_then(|_| ledger.sessions.get(&id).copied());
    if let (Some(epoch), Some(entry)) = (epoch, previous) {
        if epoch < entry.epoch {
            // Stale retraction of an id a newer session replayed.
            MetricCounters::bump(&counters.client_retries);
            return Ok(());
        }
        ledger.sessions.remove(&id);
        at = entry.at;
    }
    match state.network.unsubscribe_under(&mut token, at, id) {
        Ok(()) => {
            ledger.sessions.remove(&id);
        }
        Err(BrokerError::UnknownSubscription { .. }) if epoch.is_some() => {
            MetricCounters::bump(&counters.client_retries);
        }
        Err(e) => return Err(e.to_string()),
    }
    ledger.journal_append(JournalRecord::Unsubscribe { at: at as u64, id })
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::network::BrokerConfig;
    use crate::service::DaemonOptions;
    use crate::topology::Topology;
    use crate::wire::read_frame;
    use acd_covering::CoveringPolicy;
    use acd_subscription::{Schema, SubscriptionBuilder};
    use std::sync::Arc;

    pub(crate) fn test_network(policy: CoveringPolicy) -> Arc<BrokerNetwork> {
        let schema = Schema::builder()
            .attribute("x", 0.0, 100.0)
            .bits_per_attribute(8)
            .build()
            .unwrap();
        Arc::new(
            BrokerConfig::new(Topology::line(3).unwrap(), &schema)
                .policy(policy)
                .build()
                .unwrap(),
        )
    }

    pub(crate) fn state_with(options: DaemonOptions) -> Arc<DaemonState> {
        Arc::new(DaemonState::new(test_network(CoveringPolicy::ExactSfc), options).unwrap())
    }

    /// Decodes every response frame in `bytes`.
    pub(crate) fn responses(bytes: &[u8]) -> Vec<Frame> {
        let mut frames = Vec::new();
        let mut scratch = Vec::new();
        let mut cursor = bytes;
        while !cursor.is_empty() {
            frames.push(read_frame(&mut cursor, &mut scratch).expect("well-formed response"));
        }
        frames
    }

    /// The ids of the durable live set the shutdown snapshot is written
    /// from: `compact`'s fold of the files.
    pub(crate) fn durable_ids(state: &DaemonState) -> Vec<SubId> {
        let mut root = Root::mint();
        let ledger = state.ledger.lock(root.token()).0;
        let Persistence { dir, journal } = ledger.persistence.as_ref().unwrap();
        let snapshot = read_snapshot(&dir.join(SNAPSHOT_FILE)).unwrap();
        fold(snapshot, journal.read_acked().unwrap())
            .into_keys()
            .collect()
    }

    /// Id `id`'s session entry, as `(conn, epoch, at)`.
    fn entry(state: &DaemonState, id: SubId) -> Option<(u64, u64, BrokerId)> {
        let entry = state
            .ledger
            .lock(Root::mint().token())
            .0
            .sessions
            .get(&id)
            .copied();
        entry.map(|e| (e.conn, e.epoch, e.at))
    }

    /// Runs `requests` as one round of `session` and decodes its answers.
    fn round(state: &DaemonState, session: &mut Session, requests: Vec<Frame>) -> Vec<Frame> {
        let (mut requests, mut out) = (requests, Vec::new());
        session.on_round(state, &mut requests, &mut out).unwrap();
        assert!(requests.is_empty());
        responses(&out)
    }

    /// The answer to `request` as a round of connection `conn`'s session.
    fn ask(state: &DaemonState, conn: u64, request: Frame) -> Frame {
        let mut frames = round(state, &mut Session::new(conn), vec![request]);
        assert_eq!(frames.len(), 1, "one response per request");
        frames.pop().unwrap()
    }

    fn publish(at: BrokerId, values: &[f64]) -> Frame {
        Frame::Publish {
            at,
            values: values.to_vec(),
        }
    }

    /// `Subscribe` of id `id`, client 7, bounds `[0, hi]` at broker 0.
    fn subscribe(id: SubId, hi: f64) -> Frame {
        Frame::Subscribe {
            at: 0,
            client: 7,
            id,
            bounds: vec![(0.0, hi)],
        }
    }

    #[test]
    fn mid_batch_failure_leaves_counters_at_the_acked_prefix() {
        let state = state_with(DaemonOptions::default());
        // A burst of five same-broker publishes, the third malformed (wrong
        // arity): the valid prefix executes as one batch, the bad one
        // answers its own error, and the tail is *not executed* — so the
        // counters equal the number of Deliveries the client acks before
        // its `BatchError`, exactly the `acked` resume contract.
        let burst = [10.0, 20.0, f64::NAN, 30.0, 40.0].map(|x| match x {
            x if x.is_nan() => publish(0, &[1.0, 2.0]),
            x => publish(0, &[x]),
        });
        let frames = round(&state, &mut Session::new(1), burst.to_vec());
        assert!(matches!(frames[0], Frame::Deliveries { .. }));
        assert!(matches!(frames[1], Frame::Deliveries { .. }));
        assert!(matches!(frames[2], Frame::Err { .. }));
        assert!(
            matches!(&frames[3], Frame::Err { message } if message.contains("not executed")),
            "the tail behind a failed publish must be refused, got {:?}",
            frames[3]
        );
        assert!(matches!(frames[4], Frame::Err { .. }));
        assert_eq!(frames.len(), 5, "one response per request");
        assert_eq!(
            state.network.metrics().events_published,
            2,
            "only the acked prefix may execute"
        );

        // A burst aimed at an unknown broker fails whole: every request
        // answered, nothing executed, no counter moved.
        let burst = vec![publish(99, &[10.0]), publish(99, &[20.0])];
        let frames = round(&state, &mut Session::new(2), burst);
        assert!(matches!(frames[..], [Frame::Err { .. }, Frame::Err { .. }]));
        assert_eq!(state.network.metrics().events_published, 2);

        // Twenty valid publishes take the grid kernel and its frame writer,
        // not the serial walk; the malformed one and the tail behind it
        // are answered as above, and only the twenty execute.
        assert_eq!(ask(&state, 3, subscribe(1, 50.0)), Frame::Ok);
        let mut burst: Vec<Frame> = (0..20).map(|i| publish(2, &[i as f64 * 5.0])).collect();
        burst.push(publish(2, &[1.0, 2.0]));
        burst.extend((0..5).map(|i| publish(2, &[i as f64])));
        let before = state.network.metrics();
        let frames = round(&state, &mut Session::new(3), burst);
        assert_eq!(frames.len(), 26, "one response per request");
        for (i, frame) in frames[..20].iter().enumerate() {
            let pairs = if i * 5 <= 50 { vec![(0, 7)] } else { vec![] };
            assert_eq!(frame, &Frame::Deliveries { pairs }, "publish {i}");
        }
        // The malformed publish is answered as a lone one would be.
        assert_eq!(frames[20], ask(&state, 4, publish(2, &[1.0, 2.0])));
        assert!(matches!(frames[20], Frame::Err { .. }));
        for frame in &frames[21..] {
            assert!(
                matches!(frame, Frame::Err { message } if message.contains("not executed")),
                "{frame:?}"
            );
        }
        let after = state.network.metrics();
        assert_eq!(after.events_published - before.events_published, 20);
        assert_eq!(after.deliveries - before.deliveries, 11);
    }

    /// Rounds are answered in order, each burst at its own broker.
    #[test]
    fn pipelined_publishes_come_back_in_order() {
        let state = state_with(DaemonOptions::default());
        let mut session = Session::new(1);
        assert_eq!(ask(&state, 1, subscribe(1, 50.0)), Frame::Ok);
        let burst = vec![publish(2, &[10.0]), publish(2, &[80.0])];
        let mut frames = round(&state, &mut session, burst);
        frames.extend(round(&state, &mut session, vec![publish(1, &[20.0])]));
        let hit = Frame::Deliveries {
            pairs: vec![(0, 7)],
        };
        let miss = Frame::Deliveries { pairs: vec![] };
        assert_eq!(frames, [hit.clone(), miss, hit]);
        assert_eq!(state.network.metrics().events_published, 3);
        assert_eq!(state.network.metrics().deliveries, 2);
    }

    /// A burst long enough for the grid kernel answers byte for byte what
    /// its publishes answer one round each, on the serial walk.
    #[test]
    fn batched_publishes_deliver_like_serial_ones() {
        let state = state_with(DaemonOptions::default());
        let mut session = Session::new(1);
        assert_eq!(ask(&state, 1, subscribe(1, 50.0)), Frame::Ok);
        let burst: Vec<Frame> = (0..20).map(|i| publish(2, &[i as f64 * 5.0])).collect();
        let (mut batched, mut serial) = (Vec::new(), Vec::new());
        let mut requests = burst.clone();
        session
            .on_round(&state, &mut requests, &mut batched)
            .unwrap();
        for request in burst {
            requests.push(request);
            session
                .on_round(&state, &mut requests, &mut serial)
                .unwrap();
        }
        assert_eq!(batched, serial);
        assert_eq!(responses(&batched).len(), 20);
        assert_eq!(state.network.metrics().deliveries, 2 * 11);
    }

    #[test]
    fn a_closing_client_session_retracts_like_unsubscribe() {
        let state = state_with(DaemonOptions::default());
        let session = Session::new(1);
        assert_eq!(ask(&state, 1, subscribe(1, 50.0)), Frame::Ok);
        // The client vanishes without unsubscribing.
        session.on_close(&state, Close::Client);
        // Drained-state invariant: the registration was retracted exactly
        // like an unsubscribe, so nothing matches and nothing lingers.
        let metrics = state.network.metrics();
        assert_eq!(metrics.unsubscriptions, 1);
        assert_eq!(metrics.routing_table_entries, 0);
        let event = Event::new(state.network.schema(), vec![25.0]).unwrap();
        assert_eq!(state.network.publish(2, &event).unwrap(), vec![]);
        assert!(state
            .ledger
            .lock(Root::mint().token())
            .0
            .sessions
            .is_empty());
    }

    /// A session the daemon ends forgets who owned the registrations and
    /// nothing else: the network and the set the shutdown snapshot is
    /// written from are left as they were.
    #[test]
    fn daemon_teardown_keeps_the_registrations_the_snapshot_keeps() {
        let dir = std::env::temp_dir().join(format!("acd-teardown-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let state = state_with(DaemonOptions {
            data_dir: Some(dir.clone()),
            ..DaemonOptions::default()
        });
        let mut session = Session::new(1);
        for id in 1..=3u64 {
            let reply = round(&state, &mut session, vec![subscribe(id, 10.0 * id as f64)]);
            assert_eq!(reply, [Frame::Ok]);
        }
        let entries = state.network.metrics().routing_table_entries;
        assert!(entries > 0);
        assert_eq!(durable_ids(&state), [1, 2, 3]);

        session.on_close(&state, Close::Daemon);

        assert!(
            state
                .ledger
                .lock(Root::mint().token())
                .0
                .sessions
                .is_empty(),
            "sessions drained"
        );
        let metrics = state.network.metrics();
        assert_eq!(metrics.routing_table_entries, entries);
        assert_eq!(metrics.unsubscriptions, 0);
        assert_eq!(durable_ids(&state), [1, 2, 3]);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// `Subscribe` of `id` for `client` at broker `at` over `[lo, hi]`.
    fn record(at: u64, client: u64, id: SubId, (lo, hi): (f64, f64)) -> JournalRecord {
        let bounds = vec![(lo, hi)];
        JournalRecord::Subscribe {
            at,
            client,
            id,
            bounds,
        }
    }

    /// Recovery folds the snapshot with the journal's tail before it
    /// installs anything, and a clean shutdown writes that same fold back.
    /// The tail moves id 2, drops 3, adds 5, and adds then drops 6.
    #[test]
    fn recovery_and_compaction_fold_the_snapshot_with_the_journal_tail() {
        let dir = std::env::temp_dir().join(format!("acd-fold-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let snapshot = [
            record(0, 7, 1, (0.0, 30.0)),
            record(0, 8, 2, (20.0, 60.0)),
            record(1, 7, 3, (40.0, 80.0)),
            record(2, 9, 4, (70.0, 100.0)),
        ];
        write_snapshot(&dir.join(SNAPSHOT_FILE), &snapshot).unwrap();
        let moved = record(2, 8, 2, (25.0, 65.0));
        let added = record(1, 6, 5, (10.0, 90.0));
        let tail = [
            moved.clone(),
            JournalRecord::Unsubscribe { at: 1, id: 3 },
            added.clone(),
            record(2, 6, 6, (0.0, 100.0)),
            JournalRecord::Unsubscribe { at: 2, id: 6 },
        ];
        let journal_path = dir.join(JOURNAL_FILE);
        let mut journal = SubscriptionJournal::open(&journal_path).unwrap().0;
        for record in &tail {
            journal.append(record).unwrap();
        }
        drop(journal);

        let state = state_with(DaemonOptions {
            data_dir: Some(dir.clone()),
            ..DaemonOptions::default()
        });
        let survivors = [snapshot[0].clone(), moved, snapshot[3].clone(), added];
        assert_eq!(state.network.audit(), []);
        let metrics = state.network.metrics();
        assert_eq!(
            (metrics.subscriptions_registered, metrics.unsubscriptions),
            (4, 0),
            "one registration per surviving id, none for id 6"
        );
        for x in (0..=100).step_by(5).map(f64::from) {
            let mut oracle: Vec<(BrokerId, ClientId)> = survivors
                .iter()
                .filter_map(|r| match r {
                    JournalRecord::Subscribe {
                        at, client, bounds, ..
                    } => (bounds[0].0 <= x && x <= bounds[0].1).then_some((*at as _, *client)),
                    JournalRecord::Unsubscribe { .. } => None,
                })
                .collect();
            oracle.sort_unstable();
            oracle.dedup();
            let event = Event::new(state.network.schema(), vec![x]).unwrap();
            for at in 0..3 {
                assert_eq!(
                    state.network.publish(at, &event).unwrap(),
                    oracle,
                    "{x} at {at}"
                );
            }
        }
        assert_eq!(durable_ids(&state), [1, 2, 4, 5]);

        compact(&state).unwrap();
        drop(state);
        let written = read_snapshot(&dir.join(SNAPSHOT_FILE)).unwrap();
        let journal_len = std::fs::metadata(&journal_path).unwrap().len();
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(written, Some(survivors.to_vec()));
        assert_eq!(journal_len, acd_covering::storage::codec::HEADER_LEN as u64);
    }

    /// Recovery installs covers first, so every link of the recovered
    /// overlay sends only the maximal subscriptions on its side: no sent one
    /// covers another, and the neighbor routes exactly what was sent. The
    /// snapshot numbers a nested population narrowest first (chains around
    /// four centres, two incomparable crosses, twins), spread over seven
    /// brokers and three clients, so id order would send covers after what
    /// they cover. The journal tail moves id 6 to another broker, drops id
    /// 11, and adds then drops id 100.
    #[test]
    fn a_recovered_overlay_sends_only_the_maximal_subscriptions() {
        use crate::broker::tests::{link_records, schema};
        let dir = std::env::temp_dir().join(format!("acd-maximal-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let square =
            |(x, y): (f64, f64), half: f64| vec![(x - half, x + half), (y - half, y + half)];
        let mut bounds = Vec::new();
        for half in [2.5, 5.0, 10.0, 20.0] {
            for centre in [(30.0, 30.0), (30.0, 70.0), (70.0, 50.0), (50.0, 50.0)] {
                bounds.push(square(centre, half));
            }
        }
        bounds.extend([
            vec![(10.0, 90.0), (45.0, 55.0)],
            vec![(45.0, 55.0), (10.0, 90.0)],
        ]);
        bounds.extend([bounds[5].clone(), bounds[9].clone(), bounds[16].clone()]);
        let subscription = |id, bounds: &[_]| Subscription::from_raw_bounds(&schema(), id, bounds);
        let mut survivors: Vec<(BrokerId, ClientId, Subscription)> = (1..)
            .zip(bounds)
            .map(|(id, bounds)| {
                (
                    (id % 7) as BrokerId,
                    id % 3,
                    subscription(id, &bounds).unwrap(),
                )
            })
            .collect();
        let record =
            |(at, client, s): &(BrokerId, ClientId, Subscription)| JournalRecord::Subscribe {
                at: *at as u64,
                client: *client,
                id: s.id(),
                bounds: s.raw_bounds().to_vec(),
            };
        let snapshot: Vec<JournalRecord> = survivors.iter().map(record).collect();
        write_snapshot(&dir.join(SNAPSHOT_FILE), &snapshot).unwrap();
        survivors[5].0 = 0;
        let dropped = survivors.remove(10).2.id();
        let everything = (3, 1, subscription(100, &[(0.0, 100.0); 2]).unwrap());
        let tail = [
            record(&survivors[5]),
            JournalRecord::Unsubscribe { at: 4, id: dropped },
            record(&everything),
            JournalRecord::Unsubscribe { at: 3, id: 100 },
        ];
        let mut journal = SubscriptionJournal::open(&dir.join(JOURNAL_FILE))
            .unwrap()
            .0;
        for record in &tail {
            journal.append(record).unwrap();
        }
        drop(journal);
        let network = || {
            let topology = Topology::balanced_tree(2, 2).unwrap();
            let config = BrokerConfig::new(topology, &schema());
            Arc::new(config.policy(CoveringPolicy::ExactSfc).build().unwrap())
        };
        let options = DaemonOptions {
            data_dir: Some(dir.clone()),
            ..DaemonOptions::default()
        };
        let state = DaemonState::new(network(), options).unwrap();
        let net = &state.network;
        assert_eq!(net.audit(), []);
        assert_eq!(net.metrics().subscriptions_registered, 20);

        let steps = (0..=40).map(|i| f64::from(i) * 2.5);
        let events = steps
            .clone()
            .flat_map(|x| steps.clone().map(move |y| [x, y]));
        for (n, values) in events.enumerate() {
            let event = Event::new(net.schema(), values.to_vec()).unwrap();
            let mut oracle: Vec<(BrokerId, ClientId)> = survivors
                .iter()
                .filter(|(.., s)| s.matches(&event))
                .map(|&(at, client, _)| (at, client))
                .collect();
            oracle.sort_unstable();
            oracle.dedup();
            assert_eq!(net.publish(n % 7, &event).unwrap(), oracle, "{values:?}");
        }

        let records: Vec<_> = (0..7)
            .map(|b| net.inspect(b, link_records).unwrap())
            .collect();
        for (broker, links) in records.iter().enumerate() {
            for (neighbor, sent, _) in links {
                for (a, b) in sent.iter().flat_map(|a| sent.iter().map(move |b| (a, b))) {
                    assert!(
                        a.id() == b.id() || !a.covers(b),
                        "{broker} → {neighbor}: sent {} covers sent {}",
                        a.id(),
                        b.id()
                    );
                }
                let back = records[*neighbor].iter().find(|(n, ..)| *n == broker);
                let mut routed = back.unwrap().2.clone();
                let mut sent: Vec<SubId> = sent.iter().map(Subscription::id).collect();
                routed.sort_unstable();
                sent.sort_unstable();
                assert_eq!(routed, sent, "{broker} → {neighbor}");
            }
        }

        let in_id_order = network();
        let mut by_id: Vec<_> = survivors.iter().collect();
        by_id.sort_by_key(|(.., s)| s.id());
        for (at, client, subscription) in by_id {
            in_id_order.subscribe(*at, *client, subscription).unwrap();
        }
        let entries = |net: &BrokerNetwork| net.metrics().routing_table_entries;
        assert!(
            entries(net) < entries(&in_id_order),
            "recovered {} routing entries, id order {}",
            entries(net),
            entries(&in_id_order)
        );
        drop(state);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resubscribe_epoch_takeover_defeats_stale_replays() {
        let state = state_with(DaemonOptions::default());
        let (mut dead, mut live) = (Session::new(1), Session::new(2));
        // Connection 1 registers id 9 at broker 0 (epoch 0); connection 2
        // (the reconnected client, epoch 1) replays it at broker 2: a
        // takeover that moves the home broker. Then a stalled replay from
        // the dead connection arrives late: absorbed without clobbering it.
        assert_eq!(round(&state, &mut dead, vec![resub(0, 0)]), [Frame::Ok]);
        assert_eq!(round(&state, &mut live, vec![resub(2, 1)]), [Frame::Ok]);
        assert_eq!(round(&state, &mut dead, vec![resub(0, 0)]), [Frame::Ok]);
        let event = Event::new(state.network.schema(), vec![25.0]).unwrap();
        assert_eq!(
            state.network.publish(1, &event).unwrap(),
            vec![(2, 7)],
            "registration must live at the takeover's broker"
        );
        let metrics = state.network.metrics();
        assert_eq!(metrics.client_reconnects, 1);
        assert_eq!(metrics.client_retries, 1);
        // The dead connection's close must not touch the taken-over id...
        dead.on_close(&state, Close::Client);
        assert_eq!(state.network.publish(1, &event).unwrap(), vec![(2, 7)]);
        // ...while the owner's close retracts it.
        live.on_close(&state, Close::Client);
        assert_eq!(state.network.publish(1, &event).unwrap(), vec![]);
    }

    #[test]
    fn stale_retract_is_absorbed_and_fresh_retract_is_idempotent() {
        let state = state_with(DaemonOptions::default());
        let (mut dead, mut live) = (Session::new(1), Session::new(2));
        assert_eq!(round(&state, &mut dead, vec![resub(0, 0)]), [Frame::Ok]);
        assert_eq!(round(&state, &mut live, vec![resub(0, 1)]), [Frame::Ok]);
        // Stale retract (epoch 0) from the dead connection: no-op.
        let reply = round(&state, &mut dead, vec![retract(0, 0)]);
        assert_eq!(reply, [Frame::Ok]);
        let event = Event::new(state.network.schema(), vec![25.0]).unwrap();
        assert_eq!(state.network.publish(1, &event).unwrap(), vec![(0, 7)]);
        // Current retract removes it; a retried retract still answers Ok.
        let twice = vec![retract(0, 1), retract(0, 1)];
        assert_eq!(round(&state, &mut live, twice), [Frame::Ok, Frame::Ok]);
        assert_eq!(state.network.publish(1, &event).unwrap(), vec![]);
    }

    /// Two sessions stepped in one thread through a reconnect: the second
    /// takes id 9 over with a newer epoch, the first's late `Retract` is
    /// absorbed, and the journal, reread from disk, holds both installs and
    /// no retraction.
    #[test]
    fn two_sessions_in_one_thread_step_through_a_takeover() {
        let dir = std::env::temp_dir().join(format!("acd-two-sessions-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let state = state_with(DaemonOptions {
            data_dir: Some(dir.clone()),
            ..DaemonOptions::default()
        });
        let (mut old, mut new) = (Session::new(1), Session::new(2));
        assert_eq!(round(&state, &mut old, vec![resub(0, 1)]), [Frame::Ok]);
        assert_eq!(round(&state, &mut new, vec![resub(2, 2)]), [Frame::Ok]);
        assert_eq!(round(&state, &mut old, vec![retract(0, 1)]), [Frame::Ok]);
        old.on_close(&state, Close::Client);
        let event = Event::new(state.network.schema(), vec![25.0]).unwrap();
        assert_eq!(state.network.publish(1, &event).unwrap(), vec![(2, 7)]);
        let metrics = state.network.metrics();
        let counters = [
            metrics.client_retries,
            metrics.client_reconnects,
            metrics.unsubscriptions,
        ];
        assert_eq!(counters, [1, 1, 1], "the takeover's one retraction");
        assert_eq!(entry(&state, 9), Some((2, 2, 2)));
        drop(state);
        let (_, journal) = SubscriptionJournal::open(&dir.join(JOURNAL_FILE)).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        let want: Vec<JournalRecord> = [Rec::S(0, 9), Rec::S(2, 9)].map(Rec::into).to_vec();
        assert_eq!(journal, want);
    }

    /// `Subscribe` and `Resubscribe` build from the bounds' attribute order.
    /// On valid bounds that is the very subscription the builder makes by
    /// attribute name, and it is installed and delivers; on every bound the
    /// builder path refused (wrong arity, `lo > hi`, NaN, ±∞, outside the
    /// domain) both frames answer `Err` and register nothing.
    #[test]
    fn subscribe_frames_build_what_the_builder_builds() {
        let state = state_with(DaemonOptions::default());
        let schema = state.network.schema().clone();
        // The builder path, arity check and all.
        let by_name = |id: SubId, bounds: &[(f64, f64)]| match *bounds {
            [(lo, hi)] => SubscriptionBuilder::new(&schema)
                .range("x", lo, hi)
                .build(id)
                .ok(),
            _ => None,
        };
        let frames = |id: SubId, bounds: &[(f64, f64)]| {
            let bounds = bounds.to_vec();
            [
                Frame::Subscribe {
                    at: 0,
                    client: 7,
                    id,
                    bounds: bounds.clone(),
                },
                Frame::Resubscribe {
                    at: 2,
                    client: 8,
                    id: id + 1,
                    bounds,
                    epoch: 0,
                },
            ]
        };
        let registered = || state.network.metrics().subscriptions_registered;

        let valid: [&[(f64, f64)]; 5] = [
            &[(0.0, 100.0)],
            &[(10.0, 40.0)],
            &[(25.0, 25.0)],
            &[(-0.0, 0.0)],
            &[(99.5, 100.0)],
        ];
        for (id, bounds) in (1..).step_by(2).zip(valid) {
            let built = by_name(id, bounds).expect("valid bounds");
            assert_eq!(
                Subscription::from_raw_bounds(&schema, id, bounds),
                Ok(built)
            );
            for frame in frames(id, bounds) {
                let reply = ask(&state, 1, frame);
                assert!(matches!(reply, Frame::Ok), "{bounds:?}: {reply:?}");
            }
            let [(lo, hi)] = bounds else { unreachable!() };
            let inside = Event::new(&schema, vec![(lo + hi) / 2.0]).unwrap();
            let delivered = state.network.publish(1, &inside).unwrap();
            assert_eq!(delivered, [(0, 7), (2, 8)], "{bounds:?}");
            state.network.unsubscribe(0, id).unwrap();
            state.network.unsubscribe(2, id + 1).unwrap();
        }

        let before = registered();
        let invalid: [&[(f64, f64)]; 10] = [
            &[],
            &[(0.0, 1.0), (0.0, 1.0)],
            &[(40.0, 10.0)],
            &[(f64::NAN, 5.0)],
            &[(5.0, f64::NAN)],
            &[(f64::NEG_INFINITY, 5.0)],
            &[(5.0, f64::INFINITY)],
            &[(f64::NEG_INFINITY, f64::INFINITY)],
            &[(-0.5, 5.0)],
            &[(5.0, 100.5)],
        ];
        for bounds in invalid {
            assert_eq!(by_name(50, bounds), None, "{bounds:?}");
            assert!(
                Subscription::from_raw_bounds(&schema, 50, bounds).is_err(),
                "{bounds:?}"
            );
            for frame in frames(50, bounds) {
                let reply = ask(&state, 1, frame);
                assert!(matches!(reply, Frame::Err { .. }), "{bounds:?}: {reply:?}");
            }
        }
        assert_eq!(registered(), before);
    }

    /// A journal record as [`mutation_table`] spells it: `S(at, 9)` is a
    /// `Subscribe` of [`table_frame`]'s client and bounds, `U(at, 9)` an
    /// `Unsubscribe`.
    #[derive(Debug, Clone, Copy)]
    enum Rec {
        S(u64, SubId),
        U(u64, SubId),
    }

    impl From<Rec> for JournalRecord {
        fn from(rec: Rec) -> JournalRecord {
            match rec {
                Rec::S(at, id) => JournalRecord::Subscribe {
                    at,
                    client: 7,
                    id,
                    bounds: vec![(0.0, 50.0)],
                },
                Rec::U(at, id) => JournalRecord::Unsubscribe { at, id },
            }
        }
    }

    /// One set-up step of a [`MutationRow`].
    enum Step {
        /// A request on connection `conn`, answered `Ok`.
        Request(u64, Frame),
        /// Drop the daemon state and recover it from the data directory.
        Restart,
        /// Connection `conn` ends by daemon teardown: the session map forgets
        /// its ids, the network keeps them.
        Teardown(u64),
        /// Id 9 is retracted in process, behind the session map's back.
        Vanish,
    }

    /// One request against one prepared state, and all it may change.
    struct MutationRow {
        name: &'static str,
        setup: Vec<Step>,
        conn: u64,
        request: Frame,
        /// `Ok(())` for [`Frame::Ok`], else a fragment of the `Err` message.
        reply: Result<(), &'static str>,
        /// What the request adds to `client_retries`, `client_reconnects`
        /// and `unsubscriptions`.
        counters: [u64; 3],
        /// Id 9's session entry afterwards, as `(conn, epoch, at)`.
        session: Option<(u64, u64, BrokerId)>,
        /// The whole journal, set-up included, reread from disk.
        journal: Vec<Rec>,
    }

    /// The subscribe-like frames of the table: id 9, client 7, `[0, 50]`
    /// (or the empty range `[40, 10]` when `bad`); `epoch` picks
    /// `Resubscribe` over `Subscribe`.
    fn table_frame(at: BrokerId, epoch: Option<u64>, bad: bool) -> Frame {
        let bounds = vec![if bad { (40.0, 10.0) } else { (0.0, 50.0) }];
        let (client, id) = (7, 9);
        match epoch {
            None => Frame::Subscribe {
                at,
                client,
                id,
                bounds,
            },
            Some(epoch) => Frame::Resubscribe {
                at,
                client,
                id,
                bounds,
                epoch,
            },
        }
    }

    fn sub(at: BrokerId) -> Frame {
        table_frame(at, None, false)
    }

    fn resub(at: BrokerId, epoch: u64) -> Frame {
        table_frame(at, Some(epoch), false)
    }

    fn unsub(at: BrokerId) -> Frame {
        Frame::Unsubscribe { at, id: 9 }
    }

    fn retract(at: BrokerId, epoch: u64) -> Frame {
        Frame::Retract { at, id: 9, epoch }
    }

    /// Every branch of the four mutation requests on a three-broker line.
    fn mutation_table() -> Vec<MutationRow> {
        use Rec::{S, U};
        use Step::{Request, Restart, Teardown, Vanish};
        const GONE: &str = "not registered";
        const NO_BROKER: &str = "does not exist";
        let row = |name, setup, conn, request, reply, counters, session, journal| MutationRow {
            name,
            setup,
            conn,
            request,
            reply,
            counters,
            session,
            journal,
        };
        vec![
            row(
                "Subscribe fresh",
                vec![],
                1,
                sub(0),
                Ok(()),
                [0, 0, 0],
                Some((1, 0, 0)),
                vec![S(0, 9)],
            ),
            row(
                "Subscribe duplicate",
                vec![Request(1, sub(0))],
                2,
                sub(1),
                Err("already registered"),
                [0, 0, 0],
                Some((1, 0, 0)),
                vec![S(0, 9)],
            ),
            row(
                "Subscribe unknown broker",
                vec![],
                1,
                sub(99),
                Err(NO_BROKER),
                [0, 0, 0],
                None,
                vec![],
            ),
            row(
                "Subscribe bad bounds",
                vec![],
                1,
                table_frame(0, None, true),
                Err("empty range"),
                [0, 0, 0],
                None,
                vec![],
            ),
            row(
                "Resubscribe fresh",
                vec![],
                1,
                resub(0, 1),
                Ok(()),
                [0, 0, 0],
                Some((1, 1, 0)),
                vec![S(0, 9)],
            ),
            row(
                "Resubscribe retry on the same connection",
                vec![Request(1, resub(0, 1))],
                1,
                resub(0, 1),
                Ok(()),
                [1, 0, 1],
                Some((1, 1, 0)),
                vec![S(0, 9), S(0, 9)],
            ),
            row(
                "Resubscribe takeover moving the home broker",
                vec![Request(1, resub(0, 1))],
                2,
                resub(2, 2),
                Ok(()),
                [0, 1, 1],
                Some((2, 2, 2)),
                vec![S(0, 9), S(2, 9)],
            ),
            row(
                "Resubscribe takeover of a recovered id",
                vec![Request(1, sub(0)), Restart],
                1,
                resub(1, 1),
                Ok(()),
                [0, 1, 1],
                Some((1, 1, 1)),
                vec![S(0, 9), S(1, 9)],
            ),
            row(
                "Resubscribe stale epoch",
                vec![Request(2, resub(0, 2))],
                1,
                resub(1, 1),
                Ok(()),
                [1, 0, 0],
                Some((2, 2, 0)),
                vec![S(0, 9)],
            ),
            row(
                "Resubscribe bad bounds over a live id",
                vec![Request(1, resub(0, 1))],
                2,
                table_frame(0, Some(2), true),
                Err("empty range"),
                [0, 0, 0],
                Some((1, 1, 0)),
                vec![S(0, 9)],
            ),
            row(
                "Resubscribe refused after a takeover",
                vec![Request(1, resub(0, 1))],
                2,
                resub(99, 2),
                Err(NO_BROKER),
                [0, 1, 1],
                None,
                vec![S(0, 9), U(99, 9)],
            ),
            row(
                "Resubscribe refused without a takeover",
                vec![],
                1,
                resub(99, 1),
                Err(NO_BROKER),
                [0, 0, 0],
                None,
                vec![],
            ),
            row(
                "Unsubscribe own id",
                vec![Request(1, sub(0))],
                1,
                unsub(0),
                Ok(()),
                [0, 0, 1],
                None,
                vec![S(0, 9), U(0, 9)],
            ),
            row(
                "Unsubscribe another connection's id",
                vec![Request(1, sub(0))],
                2,
                unsub(0),
                Ok(()),
                [0, 0, 1],
                None,
                vec![S(0, 9), U(0, 9)],
            ),
            row(
                "Unsubscribe recovered id",
                vec![Request(1, sub(0)), Restart],
                2,
                unsub(0),
                Ok(()),
                [0, 0, 1],
                None,
                vec![S(0, 9), U(0, 9)],
            ),
            row(
                "Unsubscribe unknown id",
                vec![],
                1,
                unsub(0),
                Err(GONE),
                [0, 0, 0],
                None,
                vec![],
            ),
            row(
                "Unsubscribe at the wrong broker",
                vec![Request(1, sub(0))],
                1,
                unsub(1),
                Err(GONE),
                [0, 0, 0],
                Some((1, 0, 0)),
                vec![S(0, 9)],
            ),
            row(
                "Retract current",
                vec![Request(1, resub(0, 1))],
                1,
                retract(0, 1),
                Ok(()),
                [0, 0, 1],
                None,
                vec![S(0, 9), U(0, 9)],
            ),
            row(
                "Retract current naming another broker",
                vec![Request(1, resub(0, 1))],
                1,
                retract(2, 1),
                Ok(()),
                [0, 0, 1],
                None,
                vec![S(0, 9), U(0, 9)],
            ),
            row(
                "Retract stale",
                vec![Request(2, resub(0, 2))],
                1,
                retract(0, 1),
                Ok(()),
                [1, 0, 0],
                Some((2, 2, 0)),
                vec![S(0, 9)],
            ),
            row(
                "Retract already gone",
                vec![Request(1, resub(0, 1)), Request(1, retract(0, 1))],
                1,
                retract(0, 1),
                Ok(()),
                [1, 0, 0],
                None,
                vec![S(0, 9), U(0, 9), U(0, 9)],
            ),
            row(
                "Retract of an entry the network lost",
                vec![Request(1, resub(0, 1)), Vanish],
                1,
                retract(0, 1),
                Ok(()),
                [1, 0, 0],
                None,
                vec![S(0, 9), U(0, 9)],
            ),
            row(
                "Retract with no session entry",
                vec![Request(1, sub(0)), Teardown(1)],
                2,
                retract(0, 1),
                Ok(()),
                [0, 0, 1],
                None,
                vec![S(0, 9), U(0, 9)],
            ),
            row(
                "Retract at an unknown broker",
                vec![],
                1,
                retract(99, 1),
                Err(NO_BROKER),
                [0, 0, 0],
                None,
                vec![],
            ),
        ]
    }

    /// Each row runs on a fresh daemon state with a data directory. Its
    /// reply, counter deltas, session entry and journal (reread by reopening
    /// the file once the state is dropped) must all be as tabled; every
    /// failing row is reported, not just the first.
    #[test]
    fn mutation_requests_reply_count_own_and_journal_per_branch() {
        let mut failures = Vec::new();
        for (n, row) in mutation_table().into_iter().enumerate() {
            let dir = std::env::temp_dir().join(format!("acd-mutation-{}-{n}", std::process::id()));
            std::fs::remove_dir_all(&dir).ok();
            let options = DaemonOptions {
                data_dir: Some(dir.clone()),
                ..DaemonOptions::default()
            };
            let mut state = state_with(options.clone());
            for step in row.setup {
                match step {
                    Step::Request(conn, frame) => {
                        assert_eq!(ask(&state, conn, frame), Frame::Ok, "{}: set-up", row.name);
                    }
                    Step::Restart => {
                        drop(state);
                        state = state_with(options.clone());
                    }
                    Step::Teardown(conn) => Session::new(conn).on_close(&state, Close::Daemon),
                    Step::Vanish => state.network.unsubscribe(0, 9).unwrap(),
                }
            }
            let before = state.network.metrics();
            let reply = ask(&state, row.conn, row.request);
            let after = state.network.metrics();
            let counters = [
                after.client_retries - before.client_retries,
                after.client_reconnects - before.client_reconnects,
                after.unsubscriptions - before.unsubscriptions,
            ];
            let session = entry(&state, 9);
            drop(state);
            let (_, journal) = SubscriptionJournal::open(&dir.join(JOURNAL_FILE)).unwrap();
            std::fs::remove_dir_all(&dir).ok();
            let replied = match (&reply, row.reply) {
                (Frame::Ok, Ok(())) => true,
                (Frame::Err { message }, Err(fragment)) => message.contains(fragment),
                _ => false,
            };
            let want_journal: Vec<JournalRecord> = row.journal.iter().map(|&r| r.into()).collect();
            let got = (counters, session, journal);
            let want = (row.counters, row.session, want_journal);
            if !replied || got != want {
                failures.push(format!(
                    "{}: reply {reply:?} (want {:?}), got {got:?}, want {want:?}",
                    row.name, row.reply
                ));
            }
        }
        assert!(failures.is_empty(), "{}", failures.join("\n"));
    }
}
