//! The TCP front door: a daemon serving one [`BrokerNetwork`] to remote
//! clients over the [`crate::wire`] protocol.
//!
//! Architecture:
//!
//! * an **accept thread** polls the listener (non-blocking, so shutdown is
//!   observed without a wake-up connection), applies the connection cap —
//!   over-cap peers get a typed [`Frame::Rejected`] answer instead of an
//!   accept-then-stall — and hands each admitted socket to
//! * a **connection worker team** — a long-lived channel-fed
//!   `WorkerPool` — where each connection is served to completion by one
//!   worker;
//! * every worker drives the **shared network through `&self`**: the
//!   overlay's interior locking (see `LOCKING.md`) is what lets N
//!   connections subscribe, unsubscribe and publish concurrently.
//!
//! Per connection the worker speaks a strict request/response protocol
//! (`Hello` greeting, then one response frame per request frame, in order)
//! with **flush-on-idle batching**: responses are buffered while more
//! requests are already readable and flushed when the connection goes
//! idle, so a pipelining client pays one syscall per burst instead of one
//! per publish. A burst's publishes run as one batch, and the match
//! kernel's output is encoded into their `Deliveries` frames directly, with
//! no delivery list in between.
//!
//! # Failure handling
//!
//! The daemon is the resilient half of the client/server pair:
//!
//! * **Sessions are connection-scoped.** Every subscription registered over
//!   a connection is tracked in a session map; when the connection ends —
//!   clean EOF, protocol error, slow-consumer eviction, idle reap or a
//!   panic in its worker — its surviving registrations are retracted
//!   exactly like `unsubscribe`
//!   (the *drained-state invariant*: a dead client leaves no routing
//!   entries behind).
//! * **One path per mutation, acked only once durable.** `Subscribe` and
//!   `Resubscribe` both run `install`; `Unsubscribe` and `Retract` both run
//!   `retract`. Each holds the session map across its overlay call and
//!   appends its journal record before the ack; an install whose append
//!   fails is rolled back and answered `Err`.
//! * **Replay is idempotent.** [`Frame::Resubscribe`]/[`Frame::Retract`]
//!   carry the client's session *epoch*; the daemon acts only on frames
//!   whose epoch is current, so a stalled request from a pre-reconnect
//!   connection can never clobber state the reconnected client already
//!   replayed. The epoch is the only thing the two verbs add to their
//!   plain counterparts.
//! * **Overload is answered, not queued.** Beyond
//!   [`DaemonOptions::max_connections`] the accept thread answers
//!   [`Frame::Rejected`] and closes; beyond
//!   [`DaemonOptions::max_inflight`] unflushed responses, further
//!   pipelined requests on that connection are answered `Rejected`
//!   without executing.
//! * **Faults are injectable.** With [`DaemonOptions::chaos`], every
//!   admitted connection is wrapped in a pair of seeded
//!   [`FaultyStream`]s, so unmodified clients on clean sockets experience
//!   drops, corruption, stalls and disconnects deterministically.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, BufWriter, ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use acd_covering::ordered::{OrderedMutex, RANK_JOURNAL, RANK_SESSION};
use acd_covering::storage::{
    read_snapshot, write_snapshot, JournalRecord, StorageError, SubscriptionJournal,
};
use acd_subscription::{Event, SubId, Subscription};

use crate::broker::{BrokerId, ClientId};
use crate::error::{BrokerError, ServiceError};
use crate::faults::{FaultPlan, FaultyStream};
use crate::metrics::MetricCounters;
use crate::network::BrokerNetwork;
use crate::pool::WorkerPool;
use crate::wire::{
    append_frame, buffered_publish, encode_frame, put_deliveries_frames, read_frame, Frame,
};

/// How long a blocked connection read waits before re-checking the
/// shutdown flag.
const READ_POLL: Duration = Duration::from_millis(50);

/// How long the accept thread sleeps when no connection is pending.
const ACCEPT_POLL: Duration = Duration::from_millis(10);

/// Write deadline for the `Rejected` frame sent to an over-cap peer — the
/// one write the daemon performs on a connection it never admitted.
const REJECT_WRITE_TIMEOUT: Duration = Duration::from_millis(1000);

/// The append-only journal inside [`DaemonOptions::data_dir`].
const JOURNAL_FILE: &str = "journal.acd";

/// The graceful-shutdown snapshot inside [`DaemonOptions::data_dir`].
const SNAPSHOT_FILE: &str = "snapshot.acd";

/// Session owner of subscriptions restored from the data directory. No
/// real connection ever gets this id (they count up from zero), so a
/// recovered registration is never swept by connection cleanup — it lives
/// until a client retracts it or takes it over by resubscribing.
const RECOVERED_CONN: u64 = u64::MAX;

/// The answer to each publish drained behind a malformed one.
const NOT_EXECUTED: &str =
    "not executed: aborted after an earlier malformed publish in the pipelined batch";

/// Tuning for a [`BrokerDaemon`]: worker count, overload caps, eviction
/// deadlines and the optional chaos schedule.
#[derive(Debug, Clone, Default)]
pub struct DaemonOptions {
    /// Connection workers; each serves one connection at a time, so this
    /// bounds the number of concurrently *served* clients (0 is treated as
    /// 1 by the pool).
    pub workers: usize,
    /// Accepted-connection cap (0 = unlimited). Peers beyond the cap are
    /// answered with a typed [`Frame::Rejected`] and closed instead of
    /// being accepted and left to stall in the worker queue.
    pub max_connections: usize,
    /// Per-connection cap on unflushed pipelined responses (0 =
    /// unlimited). Requests beyond it are answered [`Frame::Rejected`]
    /// without executing, keeping the one-response-per-request cadence.
    pub max_inflight: usize,
    /// Evict a connection that has sent no request for this long
    /// (`None` = never). Reaped sessions are retracted like `unsubscribe`.
    pub idle_timeout: Option<Duration>,
    /// Socket write deadline (`None` = block forever). A consumer too slow
    /// to drain its responses within the deadline is evicted.
    pub write_timeout: Option<Duration>,
    /// Fault-injection schedule applied to every admitted connection
    /// (`None` = clean transport). See [`FaultPlan`].
    pub chaos: Option<FaultPlan>,
    /// Durable state directory (`None` = in-memory only). When set, every
    /// acknowledged subscribe/unsubscribe is journaled **and fsynced**
    /// before the ack is sent, the journal is compacted into a snapshot on
    /// graceful shutdown, and start-up replays `snapshot ∘ journal` — so
    /// the acked subscription set survives a kill -9, an OS crash, or
    /// power loss.
    pub data_dir: Option<PathBuf>,
}

/// One tracked subscription registration: which connection owns it, the
/// session epoch that installed it, and its home broker (for retraction).
#[derive(Debug, Clone, Copy)]
struct SessionEntry {
    conn: u64,
    epoch: u64,
    at: BrokerId,
}

/// The daemon's durable half: the open journal, the directory it lives
/// in, and the durable live set (id → its `Subscribe` record), maintained
/// in lockstep with every append so the shutdown snapshot needs no
/// replay.
#[derive(Debug)]
struct Persistence {
    dir: PathBuf,
    journal: SubscriptionJournal,
    live: HashMap<SubId, JournalRecord>,
}

/// Shared state of a running daemon: the served network, options, the
/// session registry and the live-connection gauge.
#[derive(Debug)]
struct DaemonState {
    network: Arc<BrokerNetwork>,
    options: DaemonOptions,
    chaos: Option<Arc<FaultPlan>>,
    shutdown: AtomicBool,
    /// Subscription id → owning session. Rank `session` (3): `install` and
    /// `retract` hold this mutex *across* the `network.subscribe` /
    /// `unsubscribe` calls they make, so replay and retraction of one id
    /// are serialized — see `LOCKING.md`.
    sessions: OrderedMutex<HashMap<SubId, SessionEntry>>,
    /// The durable journal, `None` without a data directory. Rank
    /// `journal` (4): appended to while the session entry is held, so the
    /// journal order matches the serialization the session lock imposes.
    journal: OrderedMutex<Option<Persistence>>,
    active: AtomicUsize,
}

impl DaemonState {
    fn new(
        network: Arc<BrokerNetwork>,
        options: DaemonOptions,
    ) -> Result<DaemonState, ServiceError> {
        let chaos = options
            .chaos
            .as_ref()
            .filter(|plan| !plan.is_noop())
            .cloned()
            .map(Arc::new);
        let mut sessions = HashMap::new();
        let persistence = match &options.data_dir {
            Some(dir) => Some(recover(&network, dir, &mut sessions)?),
            None => None,
        };
        Ok(DaemonState {
            network,
            options,
            chaos,
            shutdown: AtomicBool::new(false),
            sessions: OrderedMutex::new(RANK_SESSION, "session", sessions),
            journal: OrderedMutex::new(RANK_JOURNAL, "journal", persistence),
            active: AtomicUsize::new(0),
        })
    }
}

/// The id a journal record is about.
fn record_id(record: &JournalRecord) -> SubId {
    match record {
        JournalRecord::Subscribe { id, .. } | JournalRecord::Unsubscribe { id, .. } => *id,
    }
}

/// Loads `snapshot ∘ journal` from the data directory, re-registers every
/// surviving subscription with the network, and seeds the session map
/// (owner [`RECOVERED_CONN`]) so reconnecting clients take their
/// registrations over with an ordinary `Resubscribe`.
fn recover(
    network: &BrokerNetwork,
    dir: &Path,
    sessions: &mut HashMap<SubId, SessionEntry>,
) -> Result<Persistence, ServiceError> {
    std::fs::create_dir_all(dir)
        .map_err(|e| ServiceError::Io(format!("create {}: {e}", dir.display())))?;
    let storage = |e: StorageError| ServiceError::Io(e.to_string());
    let snapshot = read_snapshot(&dir.join(SNAPSHOT_FILE)).map_err(storage)?;
    let (journal, tail) = SubscriptionJournal::open(&dir.join(JOURNAL_FILE)).map_err(storage)?;
    let mut live: HashMap<SubId, JournalRecord> = HashMap::new();
    for record in snapshot.unwrap_or_default().into_iter().chain(tail) {
        match record {
            JournalRecord::Subscribe { id, .. } => {
                live.insert(id, record);
            }
            JournalRecord::Unsubscribe { id, .. } => {
                live.remove(&id);
            }
        }
    }
    let mut restored: Vec<&JournalRecord> = live.values().collect();
    restored.sort_by_key(|record| record_id(record));
    for record in restored {
        let JournalRecord::Subscribe {
            at,
            client,
            id,
            bounds,
        } = record
        else {
            continue;
        };
        let subscription = Subscription::from_raw_bounds(network.schema(), *id, bounds)
            .map_err(|e| ServiceError::Io(format!("recovered subscription {id}: {e}")))?;
        let at = *at as BrokerId;
        network
            .subscribe(at, *client, &subscription)
            .map_err(ServiceError::Broker)?;
        sessions.insert(
            *id,
            SessionEntry {
                conn: RECOVERED_CONN,
                epoch: 0,
                at,
            },
        );
    }
    Ok(Persistence {
        dir: dir.to_owned(),
        journal,
        live,
    })
}

/// Appends one record to the journal (and the mirrored live set) — a
/// no-op without a data directory. The caller must already hold the
/// session entry for the record's id, so appends land in the same order
/// the mutations were serialized in. A failure comes back as the message
/// of the `Err` reply that replaces the ack.
fn journal_append(state: &DaemonState, record: JournalRecord) -> Result<(), String> {
    let mut journal = state.journal.lock();
    let Some(persistence) = journal.as_mut() else {
        return Ok(());
    };
    if let Err(e) = persistence.journal.append(&record) {
        return Err(format!("journal write failed: {e}"));
    }
    match record {
        JournalRecord::Subscribe { id, .. } => {
            persistence.live.insert(id, record);
        }
        JournalRecord::Unsubscribe { id, .. } => {
            persistence.live.remove(&id);
        }
    }
    Ok(())
}

/// A running broker daemon: owns the listener and the connection worker
/// team, serves until dropped (or [`shutdown`](Self::shutdown)).
///
/// ```no_run
/// use std::sync::Arc;
/// use acd_broker::{BrokerConfig, BrokerDaemon, DaemonOptions, Topology};
/// use acd_subscription::Schema;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let schema = Schema::builder().attribute("x", 0.0, 100.0).build()?;
/// let net = Arc::new(BrokerConfig::new(Topology::star(4)?, &schema).build()?);
/// let options = DaemonOptions {
///     workers: 4,
///     ..DaemonOptions::default()
/// };
/// let daemon = BrokerDaemon::start_with(net, "127.0.0.1:0", options)?;
/// println!("listening on {}", daemon.local_addr());
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct BrokerDaemon {
    state: Arc<DaemonState>,
    addr: SocketAddr,
    accept_thread: Option<std::thread::JoinHandle<()>>,
}

impl BrokerDaemon {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts serving
    /// `network` as `options` say: worker count, overload caps, eviction
    /// deadlines, chaos injection and the data directory.
    ///
    /// # Errors
    ///
    /// Returns an error if the address cannot be bound or the data
    /// directory cannot be recovered.
    pub fn start_with(
        network: Arc<BrokerNetwork>,
        addr: impl ToSocketAddrs,
        options: DaemonOptions,
    ) -> Result<BrokerDaemon, ServiceError> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let state = Arc::new(DaemonState::new(network, options)?);
        let accept_thread = {
            let state = Arc::clone(&state);
            std::thread::Builder::new()
                .name("acd-brokerd-accept".into())
                .spawn(move || accept_loop(listener, state))
                .map_err(ServiceError::from)?
        };
        Ok(BrokerDaemon {
            state,
            addr,
            accept_thread: Some(accept_thread),
        })
    }

    /// The address the daemon is actually listening on (with the real port
    /// when bound to port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The served network — callers can inspect metrics or drive it
    /// in-process alongside the remote clients. After
    /// [`shutdown`](Self::shutdown) it still holds every registration the
    /// shutdown snapshot holds.
    pub fn network(&self) -> &Arc<BrokerNetwork> {
        &self.state.network
    }

    /// Stops accepting, drains the worker team, and returns once every
    /// connection worker has exited. With a data directory, the live
    /// subscription set is then compacted into an atomic snapshot and the
    /// journal reset, so the next start loads one small file instead of
    /// replaying the full log. Sessions the shutdown ends are not
    /// retracted: the in-process network keeps the registrations the
    /// snapshot keeps. Idempotent; also runs on drop.
    pub fn shutdown(&mut self) {
        self.state.shutdown.store(true, Ordering::SeqCst);
        if let Some(handle) = self.accept_thread.take() {
            // Joining the accept thread drops the pool, which joins every
            // connection worker.
            let _ = handle.join();
            // Workers are gone, so the live set is quiescent: snapshot it.
            let mut journal = self.state.journal.lock();
            if let Some(persistence) = journal.as_mut() {
                let mut records: Vec<JournalRecord> = persistence.live.values().cloned().collect();
                records.sort_by_key(record_id);
                let outcome = write_snapshot(&persistence.dir.join(SNAPSHOT_FILE), &records)
                    .and_then(|()| persistence.journal.reset());
                if let Err(e) = outcome {
                    // The journal still holds the full history, so a failed
                    // compaction costs replay time, not data.
                    eprintln!("acd-brokerd: snapshot on shutdown failed: {e}");
                }
            }
        }
    }
}

impl Drop for BrokerDaemon {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Accepts until shutdown, dispatching each admitted connection to the
/// worker team and answering over-cap peers with [`Frame::Rejected`].
fn accept_loop(listener: TcpListener, state: Arc<DaemonState>) {
    let pool = WorkerPool::new(state.options.workers);
    let mut next_conn: u64 = 0;
    while !state.shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let cap = state.options.max_connections;
                if cap != 0 && state.active.load(Ordering::SeqCst) >= cap {
                    reject_connection(&state, stream, cap);
                    continue;
                }
                let conn = next_conn;
                next_conn += 1;
                // Admitted at accept (not at first service) so queued
                // connections hold a slot — the cap bounds admission, and
                // over-cap peers learn it immediately instead of stalling
                // in the worker queue.
                let session = SessionGuard::admit(Arc::clone(&state), conn);
                pool.execute(move || {
                    // A connection failing (corrupt frames, peer reset) only
                    // closes that connection; the daemon keeps serving.
                    let _ = serve_connection(session, stream);
                });
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                std::thread::sleep(ACCEPT_POLL);
            }
            Err(_) => std::thread::sleep(ACCEPT_POLL),
        }
    }
    // Dropping the pool here joins the connection workers; their reads
    // observe the shutdown flag within one READ_POLL.
}

/// Answers an over-cap peer with a typed rejection and closes — bounded by
/// a short write deadline so a hostile peer cannot stall the accept loop.
fn reject_connection(state: &DaemonState, stream: TcpStream, cap: usize) {
    MetricCounters::bump(&state.network.counters().connections_rejected);
    let _ = stream.set_nodelay(true);
    let _ = stream.set_write_timeout(Some(REJECT_WRITE_TIMEOUT));
    let mut out = Vec::new();
    encode_frame(
        &Frame::Rejected {
            reason: format!("connection cap reached ({cap} active)"),
        },
        &mut out,
    );
    let mut writer = &stream;
    let _ = writer.write_all(&out);
    let _ = writer.flush();
    let _ = stream.shutdown(Shutdown::Both);
}

/// One admitted connection's claim on the daemon: its `max_connections`
/// slot and whatever its session registers. Dropping the guard releases
/// both, so the drained-state invariant and the connection gauge hold on
/// *every* exit path: clean EOF, corrupt frame, slow-consumer eviction,
/// idle reap, or a panic unwinding out of the session loop (which the
/// worker pool contains, so nothing else would notice). A daemon shutdown
/// releases the slot and the ownership but keeps the registrations.
#[derive(Debug)]
struct SessionGuard {
    state: Arc<DaemonState>,
    conn: u64,
    /// Whether the *daemon* ended the session (see [`cleanup_sessions`]);
    /// `false` until the session loop says otherwise, so a panicked
    /// session is cleaned up like a vanished client.
    daemon_teardown: bool,
}

impl SessionGuard {
    /// Takes a connection slot for `conn`.
    fn admit(state: Arc<DaemonState>, conn: u64) -> SessionGuard {
        state.active.fetch_add(1, Ordering::SeqCst);
        SessionGuard {
            state,
            conn,
            daemon_teardown: false,
        }
    }
}

impl Drop for SessionGuard {
    fn drop(&mut self) {
        cleanup_sessions(&self.state, self.conn, self.daemon_teardown);
        self.state.active.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Configures the admitted socket and serves it, applying the chaos
/// schedule when one is installed.
fn serve_connection(session: SessionGuard, stream: TcpStream) -> Result<(), ServiceError> {
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(READ_POLL))?;
    if session.state.options.write_timeout.is_some() {
        // try_clone shares the fd, so one call covers both halves.
        stream.set_write_timeout(session.state.options.write_timeout)?;
    }
    let read_half = stream.try_clone()?;
    match session.state.chaos.clone() {
        Some(plan) => {
            // Separate per-direction salts: the two halves draw
            // independent, reproducible fault schedules.
            let reader = FaultyStream::new(read_half, Arc::clone(&plan), session.conn * 2);
            let writer = FaultyStream::new(stream, plan, session.conn * 2 + 1);
            serve_session(session, reader, writer)
        }
        None => serve_session(session, read_half, stream),
    }
}

/// Serves one connection over any transport; the guard then retracts
/// whatever the session still has registered.
fn serve_session<S: Read, W: Write>(
    mut session: SessionGuard,
    transport: S,
    sink: W,
) -> Result<(), ServiceError> {
    let result = session_loop(&session.state, transport, sink, session.conn);
    // Only a session the *daemon* tore down (the shutdown flag synthesized
    // its EOF) keeps its registrations out of the journal; a client that
    // genuinely vanished — real EOF, corrupt frame, eviction — is cleaned
    // up like an unsubscribe even if a graceful shutdown is racing us.
    session.daemon_teardown = matches!(result, Ok(true));
    result.map(|_| ())
}

/// The request/response loop: `Hello` greeting, then one response per
/// request with flush-on-idle batching and the in-flight cap. A clean end
/// returns whether the *daemon* ended the session (its shutdown flag
/// synthesized the EOF) rather than the peer.
fn session_loop<S: Read, W: Write>(
    state: &DaemonState,
    transport: S,
    sink: W,
    conn: u64,
) -> Result<bool, ServiceError> {
    let mut writer = BufWriter::new(sink);
    let mut reader = BufReader::new(PatientStream::new(
        transport,
        &state.shutdown,
        state.options.idle_timeout,
    ));
    let mut out = Vec::new();
    let mut scratch = Vec::new();
    let mut batch: Vec<Vec<f64>> = Vec::new();
    let mut events: Vec<Event> = Vec::new();
    let (mut triples, mut payloads) = (Vec::new(), Vec::new());
    let network = &state.network;
    let counters = network.counters();

    let schema_json = serde_json::to_string(state.network.schema())
        .map_err(|e| ServiceError::Io(e.to_string()))?;
    encode_frame(&Frame::Hello { schema_json }, &mut out);
    send(state, &mut writer, &out)?;
    flush(state, &mut writer)?;

    let mut inflight = 0usize;
    loop {
        // Peek for data so a clean disconnect (EOF at a frame boundary,
        // including our own shutdown and the idle reaper) ends the loop
        // without an error.
        if reader.fill_buf()?.is_empty() {
            flush(state, &mut writer)?;
            if reader.get_ref().reaped() {
                MetricCounters::bump(&counters.connections_evicted);
            }
            return Ok(reader.get_ref().ended_by_shutdown());
        }
        let request = match read_frame(&mut reader, &mut scratch) {
            Ok(frame) => frame,
            Err(e) => {
                if matches!(
                    e,
                    ServiceError::CorruptFrame { .. } | ServiceError::VersionMismatch { .. }
                ) {
                    MetricCounters::bump(&counters.frames_corrupt);
                }
                return Err(e);
            }
        };
        let cap = state.options.max_inflight;
        out.clear();
        if cap != 0 && inflight >= cap {
            MetricCounters::bump(&counters.connections_rejected);
            inflight += 1;
            let reason = format!("in-flight cap reached ({cap} unflushed responses)");
            append_frame(&Frame::Rejected { reason }, &mut out);
        } else if let Frame::Publish { at, values } = request {
            // A pipelining client's burst of same-broker publishes executes
            // as one batch: drain every *fully buffered* Publish frame for
            // the same broker (never blocking on a partial frame, never
            // crossing the in-flight cap — frames beyond it stay buffered
            // and are answered `Rejected` one by one, as before).
            batch.clear();
            batch.push(values);
            while cap == 0 || inflight + batch.len() < cap {
                if buffered_publish(reader.buffer()) != Some(at) {
                    break;
                }
                match read_frame(&mut reader, &mut scratch) {
                    Ok(Frame::Publish { values, .. }) => batch.push(values),
                    Ok(other) => {
                        return Err(ServiceError::UnexpectedFrame {
                            kind: other.kind_name().to_string(),
                        })
                    }
                    Err(e) => {
                        // The peek validates the header but not the
                        // checksum; corruption surfaces here like on the
                        // ordinary read path.
                        if matches!(e, ServiceError::CorruptFrame { .. }) {
                            MetricCounters::bump(&counters.frames_corrupt);
                        }
                        return Err(e);
                    }
                }
            }
            inflight += batch.len();
            // Only the valid prefix executes, as one batch whose chunks go
            // from the match kernel straight to the frame writer. The first
            // malformed publish answers its own error and the rest answer
            // one *without executing*: the counters equal the `Deliveries`
            // frames the client acks (`BatchError::acked`), never the
            // requests it pipelined.
            let total = batch.len();
            events.clear();
            let mut refused = None;
            for values in batch.drain(..) {
                match Event::new(network.schema(), values) {
                    Ok(event) => events.push(event),
                    Err(e) => {
                        refused = Some(BrokerError::from(e).to_string());
                        break;
                    }
                }
            }
            let answer =
                |triples: &[_], n| put_deliveries_frames(&mut out, triples, n, &mut payloads);
            if let Err(e) = network.publish_chunks(at, &events, &mut triples, answer) {
                // The batch shares one origin broker, so a network-level
                // refusal (unknown broker) applies to every event, and it
                // came before any counter moved.
                for _ in &events {
                    let message = e.to_string();
                    append_frame(&Frame::Err { message }, &mut out);
                }
            }
            if let Some(refused) = refused {
                let tail = (events.len() + 1..total).map(|_| NOT_EXECUTED.to_string());
                for message in std::iter::once(refused).chain(tail) {
                    append_frame(&Frame::Err { message }, &mut out);
                }
            }
        } else {
            inflight += 1;
            append_frame(&handle_request(state, conn, request)?, &mut out);
        }
        send(state, &mut writer, &out)?;
        // Flush-on-idle: only pay the syscall when no further request is
        // already buffered (a pipelining client gets its whole burst of
        // responses in one write).
        if reader.buffer().is_empty() {
            flush(state, &mut writer)?;
            inflight = 0;
        }
    }
}

/// Writes through, classifying a timed-out write as a slow-consumer
/// eviction before surfacing the error.
fn send<W: Write>(state: &DaemonState, writer: &mut W, bytes: &[u8]) -> Result<(), ServiceError> {
    writer
        .write_all(bytes)
        .map_err(|e| classify_write_error(state, e))
}

/// Flush counterpart of [`send`].
fn flush<W: Write>(state: &DaemonState, writer: &mut W) -> Result<(), ServiceError> {
    writer.flush().map_err(|e| classify_write_error(state, e))
}

/// A response write that hit the socket write deadline means the consumer
/// is not draining: count the eviction (the session cleanup then retracts
/// its registrations).
fn classify_write_error(state: &DaemonState, e: std::io::Error) -> ServiceError {
    if matches!(e.kind(), ErrorKind::TimedOut | ErrorKind::WouldBlock) {
        MetricCounters::bump(&state.network.counters().connections_evicted);
    }
    ServiceError::from(e)
}

/// Retracts every registration still owned by connection `conn` — exactly
/// like `unsubscribe`, so an evicted or vanished client leaves no routing
/// entries behind — unless the daemon itself ended the session, which only
/// forgets the ownership. Sessions taken over by a reconnected client
/// (different `conn`) are left alone.
///
/// `daemon_teardown` is the session's *own* end cause, not the global
/// shutdown flag: keying off the flag would let a genuine client
/// disconnect that races a graceful shutdown skip its journal entry and
/// leave an ownerless registration in the shutdown snapshot.
fn cleanup_sessions(state: &DaemonState, conn: u64, daemon_teardown: bool) {
    let mut sessions = state.sessions.lock();
    let owned: Vec<(SubId, BrokerId)> = sessions
        .iter()
        .filter(|(_, entry)| entry.conn == conn)
        .map(|(id, entry)| (*id, entry.at))
        .collect();
    for (id, at) in owned {
        sessions.remove(&id);
        // A daemon-initiated teardown retracts nothing: those sessions end
        // because the daemon is stopping, and their registrations must
        // survive into the shutdown snapshot so a restarted daemon serves
        // them again (clients take them over by resubscribing).
        if daemon_teardown {
            continue;
        }
        // A vanished *client* is retracted and journaled (best-effort)
        // like an unsubscribe; racing an in-process unsubscribe is benign:
        // the entry is gone either way.
        let _ = state.network.unsubscribe(at, id);
        let _ = journal_append(state, JournalRecord::Unsubscribe { at: at as u64, id });
    }
}

/// Executes one request against the network. Broker-level rejections come
/// back as [`Frame::Err`] (the connection continues); protocol violations
/// are returned as hard errors (the connection closes).
fn handle_request(state: &DaemonState, conn: u64, request: Frame) -> Result<Frame, ServiceError> {
    let outcome = match request {
        Frame::Subscribe {
            at,
            client,
            id,
            bounds,
        } => install(state, conn, at, client, id, bounds, None),
        Frame::Resubscribe {
            at,
            client,
            id,
            bounds,
            epoch,
        } => install(state, conn, at, client, id, bounds, Some(epoch)),
        Frame::Unsubscribe { at, id } => retract(state, at, id, None),
        Frame::Retract { at, id, epoch } => retract(state, at, id, Some(epoch)),
        other => {
            return Err(ServiceError::UnexpectedFrame {
                kind: other.kind_name().to_string(),
            })
        }
    };
    Ok(match outcome {
        Ok(()) => Frame::Ok,
        Err(message) => Frame::Err { message },
    })
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
    let counters = state.network.counters();
    let mut sessions = state.sessions.lock();
    // Only a `Resubscribe` looks for a registration to take over.
    let previous = epoch.and_then(|_| sessions.get(&id).copied());
    if let (Some(epoch), Some(entry)) = (epoch, previous) {
        if epoch < entry.epoch {
            // A stalled replay from a pre-reconnect connection: the newer
            // session owns this id.
            MetricCounters::bump(&counters.client_retries);
            return Ok(());
        }
        sessions.remove(&id);
        match state.network.unsubscribe(entry.at, id) {
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
    if let Err(e) = state.network.subscribe(at, client, &subscription) {
        if previous.is_some() {
            // The reinstall failed after the old registration was
            // retracted: bring the durable state along (best effort — the
            // reply is already an error).
            let _ = journal_append(state, JournalRecord::Unsubscribe { at: at as u64, id });
        }
        return Err(e.to_string());
    }
    let record = JournalRecord::Subscribe {
        at: at as u64,
        client,
        id,
        bounds,
    };
    if let Err(message) = journal_append(state, record) {
        // Durable-ack discipline: an unjournaled mutation is not
        // acknowledged — roll it back and report.
        let _ = state.network.unsubscribe(at, id);
        return Err(message);
    }
    let epoch = epoch.unwrap_or(0);
    sessions.insert(id, SessionEntry { conn, epoch, at });
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
    let mut sessions = state.sessions.lock();
    let previous = epoch.and_then(|_| sessions.get(&id).copied());
    if let (Some(epoch), Some(entry)) = (epoch, previous) {
        if epoch < entry.epoch {
            // Stale retraction of an id a newer session replayed.
            MetricCounters::bump(&counters.client_retries);
            return Ok(());
        }
        sessions.remove(&id);
        at = entry.at;
    }
    match state.network.unsubscribe(at, id) {
        Ok(()) => {
            sessions.remove(&id);
        }
        Err(BrokerError::UnknownSubscription { .. }) if epoch.is_some() => {
            MetricCounters::bump(&counters.client_retries);
        }
        Err(e) => return Err(e.to_string()),
    }
    journal_append(state, JournalRecord::Unsubscribe { at: at as u64, id })
}

/// A [`Read`] adapter that turns read timeouts into polite polling: it
/// retries on `WouldBlock`/`TimedOut` until bytes arrive, the daemon shuts
/// down, or the idle deadline passes (both reported as EOF, so
/// frame-boundary reads end cleanly); `Interrupted` reads are retried like
/// the kernel convention requires. Because the retry lives *inside*
/// `read`, `read_exact` above it never sees a timeout mid-frame and
/// partial reads are never lost.
#[derive(Debug)]
struct PatientStream<'a, S> {
    inner: S,
    shutdown: &'a AtomicBool,
    idle_timeout: Option<Duration>,
    idle_since: Instant,
    reaped: bool,
    shutdown_eof: bool,
}

impl<'a, S: Read> PatientStream<'a, S> {
    fn new(
        inner: S,
        shutdown: &'a AtomicBool,
        idle_timeout: Option<Duration>,
    ) -> PatientStream<'a, S> {
        PatientStream {
            inner,
            shutdown,
            idle_timeout,
            idle_since: Instant::now(),
            reaped: false,
            shutdown_eof: false,
        }
    }

    /// True when the last EOF was the idle reaper, not the peer.
    fn reaped(&self) -> bool {
        self.reaped
    }

    /// True when the last EOF was synthesized by the daemon's shutdown
    /// flag — a daemon-initiated teardown, not a vanished peer.
    fn ended_by_shutdown(&self) -> bool {
        self.shutdown_eof
    }
}

impl<S: Read> Read for PatientStream<'_, S> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        loop {
            if self.shutdown.load(Ordering::SeqCst) {
                self.shutdown_eof = true;
                return Ok(0);
            }
            match self.inner.read(buf) {
                Ok(0) => return Ok(0),
                Ok(n) => {
                    self.idle_since = Instant::now();
                    return Ok(n);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                    if let Some(limit) = self.idle_timeout {
                        if self.idle_since.elapsed() >= limit {
                            self.reaped = true;
                            return Ok(0);
                        }
                    }
                    continue;
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                result => return result,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::BrokerClient;
    use crate::network::BrokerConfig;
    use crate::topology::Topology;
    use acd_covering::CoveringPolicy;
    use acd_subscription::{Schema, SubscriptionBuilder};

    fn test_schema() -> Schema {
        Schema::builder()
            .attribute("x", 0.0, 100.0)
            .bits_per_attribute(8)
            .build()
            .unwrap()
    }

    fn test_network(policy: CoveringPolicy) -> Arc<BrokerNetwork> {
        Arc::new(
            BrokerConfig::new(Topology::line(3).unwrap(), &test_schema())
                .policy(policy)
                .build()
                .unwrap(),
        )
    }

    fn daemon(policy: CoveringPolicy) -> BrokerDaemon {
        let options = DaemonOptions {
            workers: 2,
            ..DaemonOptions::default()
        };
        BrokerDaemon::start_with(test_network(policy), "127.0.0.1:0", options).unwrap()
    }

    fn state_with(options: DaemonOptions) -> Arc<DaemonState> {
        Arc::new(DaemonState::new(test_network(CoveringPolicy::ExactSfc), options).unwrap())
    }

    /// Admits connection `conn` the way the accept loop does.
    fn admit(state: &Arc<DaemonState>, conn: u64) -> SessionGuard {
        SessionGuard::admit(Arc::clone(state), conn)
    }

    /// Encodes `frames` as one pipelined request stream.
    fn requests(frames: &[Frame]) -> Vec<u8> {
        let mut buf = Vec::new();
        let mut one = Vec::new();
        for frame in frames {
            encode_frame(frame, &mut one);
            buf.extend_from_slice(&one);
        }
        buf
    }

    /// Decodes every response frame the session wrote (Hello first).
    fn responses(bytes: &[u8]) -> Vec<Frame> {
        let mut frames = Vec::new();
        let mut scratch = Vec::new();
        let mut cursor = bytes;
        while !cursor.is_empty() {
            frames.push(read_frame(&mut cursor, &mut scratch).expect("well-formed response"));
        }
        frames
    }

    #[test]
    fn daemon_serves_subscribe_publish_unsubscribe() {
        let daemon = daemon(CoveringPolicy::ExactSfc);
        let mut client = BrokerClient::connect(daemon.local_addr()).unwrap();
        let schema = client.schema().clone();
        let sub = SubscriptionBuilder::new(&schema)
            .range("x", 10.0, 40.0)
            .build(1)
            .unwrap();
        client.subscribe(0, 7, &sub).unwrap();
        let hit = Event::new(&schema, vec![25.0]).unwrap();
        assert_eq!(client.publish(2, &hit).unwrap(), vec![(0, 7)]);
        let miss = Event::new(&schema, vec![80.0]).unwrap();
        assert_eq!(client.publish(2, &miss).unwrap(), vec![]);
        client.unsubscribe(0, 1).unwrap();
        assert_eq!(client.publish(2, &hit).unwrap(), vec![]);
        assert_eq!(daemon.network().metrics().events_published, 3);
    }

    #[test]
    fn data_dir_restores_subscriptions_after_graceful_restart() {
        let dir = std::env::temp_dir().join(format!("acd-daemon-data-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let options = || DaemonOptions {
            workers: 2,
            data_dir: Some(dir.clone()),
            ..DaemonOptions::default()
        };
        let mut daemon = BrokerDaemon::start_with(
            test_network(CoveringPolicy::ExactSfc),
            "127.0.0.1:0",
            options(),
        )
        .unwrap();
        let mut client = BrokerClient::connect(daemon.local_addr()).unwrap();
        let schema = client.schema().clone();
        let keep = SubscriptionBuilder::new(&schema)
            .range("x", 10.0, 40.0)
            .build(1)
            .unwrap();
        let gone = SubscriptionBuilder::new(&schema)
            .range("x", 0.0, 90.0)
            .build(2)
            .unwrap();
        client.subscribe(0, 7, &keep).unwrap();
        client.subscribe(1, 8, &gone).unwrap();
        client.unsubscribe(1, 2).unwrap();
        // Graceful shutdown with the client still connected: the teardown
        // retraction must NOT count as an unsubscribe — the registration
        // belongs in the shutdown snapshot.
        daemon.shutdown();
        drop(daemon);
        drop(client);

        // A fresh daemon over the same directory serves the survivors.
        let daemon = BrokerDaemon::start_with(
            test_network(CoveringPolicy::ExactSfc),
            "127.0.0.1:0",
            options(),
        )
        .unwrap();
        let mut client = BrokerClient::connect(daemon.local_addr()).unwrap();
        let hit = Event::new(&schema, vec![25.0]).unwrap();
        assert_eq!(
            client.publish(2, &hit).unwrap(),
            vec![(0, 7)],
            "the subscription that was live at shutdown must be restored"
        );
        let miss = Event::new(&schema, vec![80.0]).unwrap();
        assert_eq!(
            client.publish(2, &miss).unwrap(),
            vec![],
            "the unsubscribed id must stay retracted across the restart"
        );
        // The restored registration is owned by no live connection, yet an
        // ordinary unsubscribe retracts it — durably.
        client.unsubscribe(0, 1).unwrap();
        assert_eq!(client.publish(2, &hit).unwrap(), vec![]);
        drop(client);
        drop(daemon);
        let daemon = BrokerDaemon::start_with(
            test_network(CoveringPolicy::ExactSfc),
            "127.0.0.1:0",
            options(),
        )
        .unwrap();
        let mut client = BrokerClient::connect(daemon.local_addr()).unwrap();
        assert_eq!(
            client.publish(2, &hit).unwrap(),
            vec![],
            "the retraction must be durable too"
        );
        drop(client);
        drop(daemon);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn broker_rejections_travel_as_err_frames_and_keep_the_connection() {
        let daemon = daemon(CoveringPolicy::None);
        let mut client = BrokerClient::connect(daemon.local_addr()).unwrap();
        let schema = client.schema().clone();
        let sub = SubscriptionBuilder::new(&schema)
            .range("x", 0.0, 50.0)
            .build(1)
            .unwrap();
        client.subscribe(0, 7, &sub).unwrap();
        // Duplicate id: rejected with the broker's message, connection fine.
        let rejected = client.subscribe(1, 8, &sub);
        assert!(matches!(
            rejected,
            Err(ServiceError::Rejected { message }) if message.contains("already registered")
        ));
        // Unknown broker: same shape.
        assert!(client
            .publish(99, &Event::new(&schema, vec![1.0]).unwrap())
            .is_err());
        // The connection still works after both rejections.
        assert_eq!(
            client
                .publish(2, &Event::new(&schema, vec![10.0]).unwrap())
                .unwrap(),
            vec![(0, 7)]
        );
    }

    #[test]
    fn pipelined_publishes_come_back_in_order() {
        let daemon = daemon(CoveringPolicy::ExactSfc);
        let mut client = BrokerClient::connect(daemon.local_addr()).unwrap();
        let schema = client.schema().clone();
        let sub = SubscriptionBuilder::new(&schema)
            .range("x", 0.0, 50.0)
            .build(1)
            .unwrap();
        client.subscribe(0, 7, &sub).unwrap();
        let events: Vec<Event> = (0..20)
            .map(|i| Event::new(&schema, vec![i as f64 * 5.0]).unwrap())
            .collect();
        let batches = client.publish_batch(2, &events).unwrap();
        assert_eq!(batches.len(), events.len());
        for (event, deliveries) in events.iter().zip(&batches) {
            let expected: Vec<(usize, u64)> = if event.value(0) <= 50.0 {
                vec![(0, 7)]
            } else {
                vec![]
            };
            assert_eq!(deliveries, &expected);
        }
    }

    #[test]
    fn shutdown_disconnects_clients_and_joins_workers() {
        let mut daemon = daemon(CoveringPolicy::None);
        let addr = daemon.local_addr();
        let mut client = BrokerClient::connect(addr).unwrap();
        daemon.shutdown();
        // The daemon is gone: either the next request errors out, or new
        // connections are refused.
        let schema = client.schema().clone();
        let result = client.publish(0, &Event::new(&schema, vec![1.0]).unwrap());
        assert!(result.is_err());
        assert!(BrokerClient::connect(addr).is_err());
    }

    #[test]
    fn connection_cap_answers_rejected_instead_of_stalling() {
        let net = test_network(CoveringPolicy::ExactSfc);
        let daemon = BrokerDaemon::start_with(
            Arc::clone(&net),
            "127.0.0.1:0",
            DaemonOptions {
                workers: 1,
                max_connections: 1,
                ..DaemonOptions::default()
            },
        )
        .unwrap();
        let _first = BrokerClient::connect(daemon.local_addr()).unwrap();
        let started = Instant::now();
        let second = BrokerClient::connect(daemon.local_addr());
        assert!(
            matches!(
                second,
                Err(ServiceError::Overloaded { ref reason }) if reason.contains("connection cap")
            ),
            "over-cap connect must be a typed rejection, got {second:?}"
        );
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "rejection must arrive within the deadline, not hang"
        );
        assert_eq!(net.metrics().connections_rejected, 1);
    }

    #[test]
    fn inflight_cap_rejects_excess_pipelined_requests_without_executing() {
        let state = state_with(DaemonOptions {
            max_inflight: 2,
            ..DaemonOptions::default()
        });
        // One pipelined burst: 4 publishes, all buffered before the first
        // response flush, so the cap sees them as one in-flight window.
        let burst = requests(&[
            Frame::Publish {
                at: 0,
                values: vec![10.0],
            },
            Frame::Publish {
                at: 0,
                values: vec![20.0],
            },
            Frame::Publish {
                at: 0,
                values: vec![30.0],
            },
            Frame::Publish {
                at: 0,
                values: vec![40.0],
            },
        ]);
        let mut sink = Vec::new();
        serve_session(admit(&state, 1), burst.as_slice(), &mut sink).unwrap();
        let frames = responses(&sink);
        assert!(matches!(frames[0], Frame::Hello { .. }));
        assert!(matches!(frames[1], Frame::Deliveries { .. }));
        assert!(matches!(frames[2], Frame::Deliveries { .. }));
        assert!(matches!(frames[3], Frame::Rejected { .. }));
        assert!(matches!(frames[4], Frame::Rejected { .. }));
        // Only the two admitted publishes executed.
        assert_eq!(state.network.metrics().events_published, 2);
        assert_eq!(state.network.metrics().connections_rejected, 2);
    }

    #[test]
    fn mid_batch_failure_leaves_counters_at_the_acked_prefix() {
        let state = state_with(DaemonOptions::default());
        // Five pipelined same-broker publishes, the third malformed (wrong
        // arity): the valid prefix executes as one batch, the bad one
        // answers its own error, and the tail is *not executed* — so the
        // counters equal the number of Deliveries the client acks before
        // its `BatchError`, exactly the `acked` resume contract.
        let burst = requests(&[
            Frame::Publish {
                at: 0,
                values: vec![10.0],
            },
            Frame::Publish {
                at: 0,
                values: vec![20.0],
            },
            Frame::Publish {
                at: 0,
                values: vec![1.0, 2.0],
            },
            Frame::Publish {
                at: 0,
                values: vec![30.0],
            },
            Frame::Publish {
                at: 0,
                values: vec![40.0],
            },
        ]);
        let mut sink = Vec::new();
        serve_session(admit(&state, 1), burst.as_slice(), &mut sink).unwrap();
        let frames = responses(&sink);
        assert!(matches!(frames[0], Frame::Hello { .. }));
        assert!(matches!(frames[1], Frame::Deliveries { .. }));
        assert!(matches!(frames[2], Frame::Deliveries { .. }));
        assert!(matches!(frames[3], Frame::Err { .. }));
        assert!(
            matches!(&frames[4], Frame::Err { message } if message.contains("not executed")),
            "the tail behind a failed publish must be refused, got {:?}",
            frames[4]
        );
        assert!(matches!(frames[5], Frame::Err { .. }));
        assert_eq!(frames.len(), 6, "one response per request");
        assert_eq!(
            state.network.metrics().events_published,
            2,
            "only the acked prefix may execute"
        );

        // A batch aimed at an unknown broker fails whole: every request
        // answered, nothing executed, no counter moved.
        let burst = requests(&[
            Frame::Publish {
                at: 99,
                values: vec![10.0],
            },
            Frame::Publish {
                at: 99,
                values: vec![20.0],
            },
        ]);
        let mut sink = Vec::new();
        serve_session(admit(&state, 2), burst.as_slice(), &mut sink).unwrap();
        let frames = responses(&sink);
        assert!(matches!(frames[1], Frame::Err { .. }));
        assert!(matches!(frames[2], Frame::Err { .. }));
        assert_eq!(frames.len(), 3);
        assert_eq!(state.network.metrics().events_published, 2);

        // Twenty valid publishes take the grid kernel and its frame writer,
        // not the serial walk; the malformed one and the tail behind it
        // are answered as above, and only the twenty execute.
        let subscribe = Frame::Subscribe {
            at: 0,
            client: 7,
            id: 1,
            bounds: vec![(0.0, 50.0)],
        };
        assert_eq!(handle_request(&state, 3, subscribe).unwrap(), Frame::Ok);
        let publish = |values: Vec<f64>| Frame::Publish { at: 2, values };
        let mut pipeline: Vec<Frame> = (0..20).map(|i| publish(vec![i as f64 * 5.0])).collect();
        pipeline.push(publish(vec![1.0, 2.0]));
        pipeline.extend((0..5).map(|i| publish(vec![i as f64])));
        let before = state.network.metrics();
        let mut sink = Vec::new();
        serve_session(admit(&state, 3), requests(&pipeline).as_slice(), &mut sink).unwrap();
        let frames = responses(&sink);
        assert_eq!(frames.len(), 1 + 26, "one response per request");
        for (i, frame) in frames[1..21].iter().enumerate() {
            let pairs = if i * 5 <= 50 { vec![(0, 7)] } else { vec![] };
            assert_eq!(frame, &Frame::Deliveries { pairs }, "publish {i}");
        }
        // The malformed publish is answered as a lone one would be.
        let mut lone = Vec::new();
        let request = requests(&[publish(vec![1.0, 2.0])]);
        serve_session(admit(&state, 4), request.as_slice(), &mut lone).unwrap();
        assert_eq!(frames[21], responses(&lone)[1]);
        assert!(matches!(frames[21], Frame::Err { .. }));
        for frame in &frames[22..] {
            assert!(
                matches!(frame, Frame::Err { message } if message.contains("not executed")),
                "{frame:?}"
            );
        }
        let after = state.network.metrics();
        assert_eq!(after.events_published - before.events_published, 20);
        assert_eq!(after.deliveries - before.deliveries, 11);
    }

    #[test]
    fn batched_publishes_deliver_like_serial_ones() {
        let state = state_with(DaemonOptions::default());
        handle_request(
            &state,
            1,
            Frame::Subscribe {
                at: 0,
                client: 7,
                id: 1,
                bounds: vec![(0.0, 50.0)],
            },
        )
        .unwrap();
        // A mixed-broker pipeline splits into per-broker batches and every
        // response still lands in request order.
        let burst = requests(&[
            Frame::Publish {
                at: 2,
                values: vec![10.0],
            },
            Frame::Publish {
                at: 2,
                values: vec![80.0],
            },
            Frame::Publish {
                at: 1,
                values: vec![20.0],
            },
        ]);
        let mut sink = Vec::new();
        serve_session(admit(&state, 1), burst.as_slice(), &mut sink).unwrap();
        let frames = responses(&sink);
        assert_eq!(
            frames[1],
            Frame::Deliveries {
                pairs: vec![(0, 7)]
            }
        );
        assert_eq!(frames[2], Frame::Deliveries { pairs: vec![] });
        assert_eq!(
            frames[3],
            Frame::Deliveries {
                pairs: vec![(0, 7)]
            }
        );
        assert_eq!(state.network.metrics().events_published, 3);
        assert_eq!(state.network.metrics().deliveries, 2);
    }

    #[test]
    fn disconnect_retracts_sessions_like_unsubscribe() {
        let state = state_with(DaemonOptions::default());
        let stream = requests(&[Frame::Subscribe {
            at: 0,
            client: 7,
            id: 1,
            bounds: vec![(0.0, 50.0)],
        }]);
        let mut sink = Vec::new();
        // The transport ends (EOF) right after the subscribe — a client
        // that vanished without unsubscribing.
        serve_session(admit(&state, 1), stream.as_slice(), &mut sink).unwrap();
        let frames = responses(&sink);
        assert!(matches!(frames[1], Frame::Ok));
        // Drained-state invariant: the registration was retracted exactly
        // like an unsubscribe, so nothing matches and nothing lingers.
        let metrics = state.network.metrics();
        assert_eq!(metrics.unsubscriptions, 1);
        assert_eq!(metrics.routing_table_entries, 0);
        let event = Event::new(state.network.schema(), vec![25.0]).unwrap();
        assert_eq!(state.network.publish(2, &event).unwrap(), vec![]);
        assert!(state.sessions.lock().is_empty());
    }

    #[test]
    fn resubscribe_epoch_takeover_defeats_stale_replays() {
        let state = state_with(DaemonOptions::default());
        let bounds = vec![(0.0, 50.0)];
        // Connection 1 registers id 9 at broker 0 (epoch 0).
        let reply = handle_request(
            &state,
            1,
            Frame::Resubscribe {
                at: 0,
                client: 7,
                id: 9,
                bounds: bounds.clone(),
                epoch: 0,
            },
        )
        .unwrap();
        assert!(matches!(reply, Frame::Ok));
        // Connection 2 (the reconnected client, epoch 1) replays it at
        // broker 2: a takeover that moves the home broker.
        let reply = handle_request(
            &state,
            2,
            Frame::Resubscribe {
                at: 2,
                client: 7,
                id: 9,
                bounds: bounds.clone(),
                epoch: 1,
            },
        )
        .unwrap();
        assert!(matches!(reply, Frame::Ok));
        // A stalled replay from the dead connection arrives late: absorbed
        // without clobbering the takeover.
        let reply = handle_request(
            &state,
            1,
            Frame::Resubscribe {
                at: 0,
                client: 7,
                id: 9,
                bounds: bounds.clone(),
                epoch: 0,
            },
        )
        .unwrap();
        assert!(matches!(reply, Frame::Ok));
        let event = Event::new(state.network.schema(), vec![25.0]).unwrap();
        assert_eq!(
            state.network.publish(1, &event).unwrap(),
            vec![(2, 7)],
            "registration must live at the takeover's broker"
        );
        let metrics = state.network.metrics();
        assert_eq!(metrics.client_reconnects, 1);
        assert_eq!(metrics.client_retries, 1);
        // The dead connection's cleanup must not touch the taken-over id...
        cleanup_sessions(&state, 1, false);
        assert_eq!(state.network.publish(1, &event).unwrap(), vec![(2, 7)]);
        // ...while the owner's cleanup retracts it.
        cleanup_sessions(&state, 2, false);
        assert_eq!(state.network.publish(1, &event).unwrap(), vec![]);
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
                let reply = handle_request(&state, 1, frame).unwrap();
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
                let reply = handle_request(&state, 1, frame).unwrap();
                assert!(matches!(reply, Frame::Err { .. }), "{bounds:?}: {reply:?}");
            }
        }
        assert_eq!(registered(), before);
    }

    #[test]
    fn stale_retract_is_absorbed_and_fresh_retract_is_idempotent() {
        let state = state_with(DaemonOptions::default());
        let bounds = vec![(0.0, 50.0)];
        for (conn, epoch) in [(1u64, 0u64), (2, 1)] {
            let reply = handle_request(
                &state,
                conn,
                Frame::Resubscribe {
                    at: 0,
                    client: 7,
                    id: 9,
                    bounds: bounds.clone(),
                    epoch,
                },
            )
            .unwrap();
            assert!(matches!(reply, Frame::Ok));
        }
        // Stale retract (epoch 0) from the dead connection: no-op.
        let reply = handle_request(
            &state,
            1,
            Frame::Retract {
                at: 0,
                id: 9,
                epoch: 0,
            },
        )
        .unwrap();
        assert!(matches!(reply, Frame::Ok));
        let event = Event::new(state.network.schema(), vec![25.0]).unwrap();
        assert_eq!(state.network.publish(1, &event).unwrap(), vec![(0, 7)]);
        // Current retract removes it; a retried retract still answers Ok.
        for _ in 0..2 {
            let reply = handle_request(
                &state,
                2,
                Frame::Retract {
                    at: 0,
                    id: 9,
                    epoch: 1,
                },
            )
            .unwrap();
            assert!(matches!(reply, Frame::Ok));
        }
        assert_eq!(state.network.publish(1, &event).unwrap(), vec![]);
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
                        let reply = handle_request(&state, conn, frame).unwrap();
                        assert_eq!(reply, Frame::Ok, "{}: set-up", row.name);
                    }
                    Step::Restart => {
                        drop(state);
                        state = state_with(options.clone());
                    }
                    Step::Teardown(conn) => cleanup_sessions(&state, conn, true),
                    Step::Vanish => state.network.unsubscribe(0, 9).unwrap(),
                }
            }
            let before = state.network.metrics();
            let reply = handle_request(&state, row.conn, row.request).unwrap();
            let after = state.network.metrics();
            let counters = [
                after.client_retries - before.client_retries,
                after.client_reconnects - before.client_reconnects,
                after.unsubscriptions - before.unsubscriptions,
            ];
            let session = state
                .sessions
                .lock()
                .get(&9)
                .map(|e| (e.conn, e.epoch, e.at));
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

    /// A transport that yields `Interrupted` a few times before the data,
    /// then EOF — the syscall-restart convention.
    struct InterruptedSource {
        interruptions: usize,
        data: Vec<u8>,
        served: bool,
    }

    impl Read for InterruptedSource {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if self.interruptions > 0 {
                self.interruptions -= 1;
                return Err(std::io::Error::new(ErrorKind::Interrupted, "signal"));
            }
            if self.served || buf.is_empty() {
                return Ok(0);
            }
            self.served = true;
            let n = self.data.len().min(buf.len());
            buf[..n].copy_from_slice(&self.data[..n]);
            Ok(n)
        }
    }

    /// A transport that always times out, like a socket with a read
    /// timeout and a silent peer.
    struct SilentSource;

    impl Read for SilentSource {
        fn read(&mut self, _buf: &mut [u8]) -> std::io::Result<usize> {
            std::thread::sleep(Duration::from_millis(1));
            Err(std::io::Error::new(ErrorKind::WouldBlock, "timeout"))
        }
    }

    #[test]
    fn patient_stream_retries_interrupted_reads() {
        let shutdown = AtomicBool::new(false);
        let source = InterruptedSource {
            interruptions: 3,
            data: b"abc".to_vec(),
            served: false,
        };
        let mut patient = PatientStream::new(source, &shutdown, None);
        let mut buf = [0u8; 8];
        assert_eq!(patient.read(&mut buf).unwrap(), 3);
        assert_eq!(&buf[..3], b"abc");
        // And the eventual EOF still comes through.
        assert_eq!(patient.read(&mut buf).unwrap(), 0);
        assert!(!patient.reaped());
    }

    #[test]
    fn patient_stream_zero_length_reads_return_without_blocking() {
        let shutdown = AtomicBool::new(false);
        let source = InterruptedSource {
            interruptions: 0,
            data: b"pending".to_vec(),
            served: false,
        };
        let mut patient = PatientStream::new(source, &shutdown, None);
        // An empty destination is satisfied immediately (not EOF, not a
        // hang) and consumes nothing...
        assert_eq!(patient.read(&mut []).unwrap(), 0);
        // ...the pending data is still there for the next real read.
        let mut buf = [0u8; 16];
        assert_eq!(patient.read(&mut buf).unwrap(), 7);
        assert_eq!(&buf[..7], b"pending");
    }

    #[test]
    fn patient_stream_read_timeout_racing_shutdown_ends_as_eof() {
        let shutdown = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&shutdown);
        // The reader is mid-poll (every poll times out) when another
        // thread raises the shutdown flag: the read must end as a clean
        // EOF, not hang and not error.
        let reader = std::thread::spawn(move || {
            let mut patient = PatientStream::new(SilentSource, &flag, None);
            let mut buf = [0u8; 8];
            patient.read(&mut buf)
        });
        std::thread::sleep(Duration::from_millis(20));
        shutdown.store(true, Ordering::SeqCst);
        let result = reader.join().expect("reader must not panic");
        assert_eq!(result.unwrap(), 0, "shutdown mid-poll reads as EOF");
    }

    #[test]
    fn patient_stream_reaps_idle_connections() {
        let shutdown = AtomicBool::new(false);
        let mut patient =
            PatientStream::new(SilentSource, &shutdown, Some(Duration::from_millis(10)));
        let mut buf = [0u8; 8];
        assert_eq!(patient.read(&mut buf).unwrap(), 0, "idle deadline → EOF");
        assert!(patient.reaped(), "EOF must be attributed to the reaper");
    }

    #[test]
    fn idle_reap_is_counted_and_drains_the_session() {
        let state = state_with(DaemonOptions {
            idle_timeout: Some(Duration::from_millis(10)),
            ..DaemonOptions::default()
        });
        // A subscribe, then silence: the reaper must end the session and
        // the cleanup must retract the registration.
        struct ThenSilent {
            data: Vec<u8>,
            offset: usize,
        }
        impl Read for ThenSilent {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                if self.offset < self.data.len() && !buf.is_empty() {
                    let n = (self.data.len() - self.offset).min(buf.len());
                    buf[..n].copy_from_slice(&self.data[self.offset..self.offset + n]);
                    self.offset += n;
                    return Ok(n);
                }
                std::thread::sleep(Duration::from_millis(1));
                Err(std::io::Error::new(ErrorKind::WouldBlock, "timeout"))
            }
        }
        let transport = ThenSilent {
            data: requests(&[Frame::Subscribe {
                at: 0,
                client: 7,
                id: 1,
                bounds: vec![(0.0, 50.0)],
            }]),
            offset: 0,
        };
        let mut sink = Vec::new();
        serve_session(admit(&state, 1), transport, &mut sink).unwrap();
        let metrics = state.network.metrics();
        assert_eq!(metrics.connections_evicted, 1, "reap counts as eviction");
        assert_eq!(metrics.routing_table_entries, 0, "session drained");
    }

    /// Regression: the journal-or-not decision at cleanup keys off the
    /// session's own teardown cause, not the global shutdown flag. A
    /// client whose genuine EOF lands just as a graceful shutdown begins
    /// must still have its retraction journaled — otherwise the shutdown
    /// snapshot restores a registration whose owner is gone.
    #[test]
    fn client_eof_racing_shutdown_still_journals_the_retraction() {
        let dir = std::env::temp_dir().join(format!("acd-eof-race-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let state = state_with(DaemonOptions {
            data_dir: Some(dir.clone()),
            ..DaemonOptions::default()
        });
        // A subscribe, then a *real* peer hang-up whose EOF is observed
        // while a graceful shutdown flips the flag concurrently.
        struct EofFlipsShutdown<'a> {
            data: Vec<u8>,
            offset: usize,
            shutdown: &'a AtomicBool,
        }
        impl Read for EofFlipsShutdown<'_> {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                if self.offset < self.data.len() && !buf.is_empty() {
                    let n = (self.data.len() - self.offset).min(buf.len());
                    buf[..n].copy_from_slice(&self.data[self.offset..self.offset + n]);
                    self.offset += n;
                    return Ok(n);
                }
                self.shutdown.store(true, Ordering::SeqCst);
                Ok(0)
            }
        }
        let transport = EofFlipsShutdown {
            data: requests(&[Frame::Subscribe {
                at: 0,
                client: 7,
                id: 1,
                bounds: vec![(0.0, 50.0)],
            }]),
            offset: 0,
            shutdown: &state.shutdown,
        };
        let mut sink = Vec::new();
        serve_session(admit(&state, 1), transport, &mut sink).unwrap();
        assert_eq!(state.network.metrics().routing_table_entries, 0);
        {
            let journal = state.journal.lock();
            let live = &journal.as_ref().unwrap().live;
            assert!(
                live.is_empty(),
                "the vanished client's registration must not survive into \
                 the shutdown snapshot: {live:?}"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A daemon-initiated teardown forgets who owned the registrations and
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
        for id in 1..=3u64 {
            let subscribe = Frame::Subscribe {
                at: 0,
                client: 7,
                id,
                bounds: vec![(0.0, 10.0 * id as f64)],
            };
            assert!(matches!(
                handle_request(&state, 1, subscribe).unwrap(),
                Frame::Ok
            ));
        }
        let entries = state.network.metrics().routing_table_entries;
        assert!(entries > 0);
        let live = state.journal.lock().as_ref().unwrap().live.clone();
        assert_eq!(live.len(), 3);

        cleanup_sessions(&state, 1, true);

        assert!(state.sessions.lock().is_empty(), "session map drained");
        let metrics = state.network.metrics();
        assert_eq!(metrics.routing_table_entries, entries);
        assert_eq!(metrics.unsubscriptions, 0);
        assert_eq!(state.journal.lock().as_ref().unwrap().live, live);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Regression: the worker pool contains a panicking connection job, so
    /// nothing after the call site runs — the slot and the session's
    /// registrations must be released by the guard as the panic unwinds.
    #[test]
    fn a_panicking_session_releases_its_slot_and_its_subscriptions() {
        let state = state_with(DaemonOptions::default());
        /// Delivers its bytes, then panics on the next read — after noting
        /// how many sessions the daemon holds at that point.
        struct PanicsAfter {
            data: Vec<u8>,
            delivered: bool,
            state: Arc<DaemonState>,
            sessions_seen: Arc<AtomicUsize>,
        }
        impl Read for PanicsAfter {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                if !self.delivered {
                    self.delivered = true;
                    buf[..self.data.len()].copy_from_slice(&self.data);
                    return Ok(self.data.len());
                }
                let live = self.state.sessions.lock().len();
                self.sessions_seen.store(live, Ordering::SeqCst);
                panic!("transport panic must not leak the session");
            }
        }
        let sessions_seen = Arc::new(AtomicUsize::new(0));
        let transport = PanicsAfter {
            data: requests(&[Frame::Subscribe {
                at: 0,
                client: 7,
                id: 1,
                bounds: vec![(0.0, 50.0)],
            }]),
            delivered: false,
            state: Arc::clone(&state),
            sessions_seen: Arc::clone(&sessions_seen),
        };
        let active_before = state.active.load(Ordering::SeqCst);
        let session = admit(&state, 1);
        assert_eq!(state.active.load(Ordering::SeqCst), active_before + 1);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            serve_session(session, transport, Vec::new())
        }));
        assert!(outcome.is_err(), "the transport panic must propagate");
        assert_eq!(
            sessions_seen.load(Ordering::SeqCst),
            1,
            "the subscribe must have registered before the panic"
        );
        assert!(state.sessions.lock().is_empty(), "session map drained");
        assert_eq!(state.network.metrics().routing_table_entries, 0);
        assert_eq!(state.active.load(Ordering::SeqCst), active_before);
    }

    #[test]
    fn corrupt_request_frames_are_counted_and_close_the_connection() {
        let state = state_with(DaemonOptions::default());
        let mut garbage = requests(&[Frame::Publish {
            at: 0,
            values: vec![10.0],
        }]);
        let last = garbage.len() - 1;
        garbage[last] ^= 0xff; // break the checksum
        let mut sink = Vec::new();
        let result = serve_session(admit(&state, 1), garbage.as_slice(), &mut sink);
        assert!(matches!(result, Err(ServiceError::CorruptFrame { .. })));
        assert_eq!(state.network.metrics().frames_corrupt, 1);
        assert_eq!(
            state.network.metrics().events_published,
            0,
            "a corrupt request must not execute"
        );
    }
}
