//! The TCP front door: a daemon serving one [`BrokerNetwork`] to remote
//! clients over the [`crate::wire`] protocol. This module is the blocking
//! socket shell; what a request *means* — the handlers, the publish burst,
//! recovery and the journal — is the session's (`session.rs`).
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
//! in **rounds**: one request, or the burst of same-broker publishes
//! already buffered behind one. The session answers a round into one
//! buffer, the shell writes it with one `send`, and **flush-on-idle**
//! batching flushes only when no further request is readable, so a
//! pipelining client pays one syscall per burst instead of one per publish.
//!
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

use std::io::{BufRead, BufReader, BufWriter, ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::error::ServiceError::{self, CorruptFrame, VersionMismatch};
use crate::faults::{FaultPlan, FaultyStream};
use crate::lock::{self, Mutex};
use crate::metrics::MetricCounters;
use crate::network::BrokerNetwork;
use crate::pool::WorkerPool;
use crate::session::{self, Close, Ledger, Session};
use crate::wire::{append_frame, buffered_publish, encode_frame, read_frame, Frame};

/// How long a blocked connection read waits before re-checking the
/// shutdown flag.
const READ_POLL: Duration = Duration::from_millis(50);

/// How long the accept thread sleeps when no connection is pending.
const ACCEPT_POLL: Duration = Duration::from_millis(10);

/// Write deadline for the `Rejected` frame sent to an over-cap peer — the
/// one write the daemon performs on a connection it never admitted.
const REJECT_WRITE_TIMEOUT: Duration = Duration::from_millis(1000);

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

/// Shared state of a running daemon: the served network, options, the
/// session registry and the live-connection gauge.
#[derive(Debug)]
pub(crate) struct DaemonState {
    pub(crate) network: Arc<BrokerNetwork>,
    options: DaemonOptions,
    chaos: Option<Arc<FaultPlan>>,
    shutdown: AtomicBool,
    /// The session map and the journal: the daemon's one mutation lock,
    /// the first level of the chain. Every subscribe, unsubscribe and
    /// closing session holds it *across* its overlay walks, which it takes
    /// with this lock's token, and its journal append, so the daemon's
    /// mutations run one at a time — see `LOCKING.md`.
    pub(crate) ledger: Mutex<Ledger, lock::Daemon>,
    active: AtomicUsize,
}

impl DaemonState {
    pub(crate) fn new(
        network: Arc<BrokerNetwork>,
        options: DaemonOptions,
    ) -> Result<DaemonState, ServiceError> {
        let chaos = options
            .chaos
            .as_ref()
            .filter(|plan| !plan.is_noop())
            .cloned()
            .map(Arc::new);
        let ledger = match &options.data_dir {
            Some(dir) => session::recover(&network, dir)?,
            None => Ledger::default(),
        };
        Ok(DaemonState {
            network,
            options,
            chaos,
            shutdown: AtomicBool::new(false),
            ledger: Mutex::new(ledger),
            active: AtomicUsize::new(0),
        })
    }
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
            if let Err(e) = session::compact(&self.state) {
                // The journal still holds the full history, so a failed
                // compaction costs replay time, not data.
                eprintln!("acd-brokerd: snapshot on shutdown failed: {e}");
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
                let guard = SessionGuard::admit(Arc::clone(&state), conn);
                pool.execute(move || {
                    // A connection failing (corrupt frames, peer reset) only
                    // closes that connection; the daemon keeps serving.
                    let _ = serve_connection(guard, stream);
                });
            }
            // `WouldBlock` (nothing pending) or a failed accept alike.
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
    let (mut out, reason) = (Vec::new(), format!("connection cap reached ({cap} active)"));
    encode_frame(&Frame::Rejected { reason }, &mut out);
    let mut writer = &stream;
    let _ = writer.write_all(&out);
    let _ = writer.flush();
    let _ = stream.shutdown(Shutdown::Both);
}

/// One admitted connection's claim on the daemon: its `max_connections`
/// slot and its session. Dropping the guard frees the slot and closes the
/// session, so the drained-state invariant and the connection gauge hold
/// on *every* exit path: clean EOF, corrupt frame, slow-consumer eviction,
/// idle reap, or a panic unwinding out of [`serve`] (which the worker pool
/// contains, so nothing else would notice).
#[derive(Debug)]
struct SessionGuard {
    state: Arc<DaemonState>,
    session: Session,
    /// [`Close::Client`] until [`serve`] sees the daemon's shutdown end the
    /// session, so a panicked session closes like a vanished client.
    cause: Close,
}

impl SessionGuard {
    /// Takes a connection slot for connection `conn`.
    fn admit(state: Arc<DaemonState>, conn: u64) -> SessionGuard {
        state.active.fetch_add(1, Ordering::SeqCst);
        SessionGuard {
            state,
            session: Session::new(conn),
            cause: Close::Client,
        }
    }
}

impl Drop for SessionGuard {
    fn drop(&mut self) {
        self.session.on_close(&self.state, self.cause);
        self.state.active.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Configures the admitted socket and serves it, applying the chaos
/// schedule when one is installed.
fn serve_connection(guard: SessionGuard, stream: TcpStream) -> Result<(), ServiceError> {
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(READ_POLL))?;
    let read_half = stream.try_clone()?;
    match guard.state.chaos.clone() {
        Some(plan) => {
            // Separate per-direction salts: the two halves draw
            // independent, reproducible fault schedules.
            let conn = guard.session.conn;
            let reader = FaultyStream::new(read_half, Arc::clone(&plan), conn * 2);
            let writer = FaultyStream::new(stream, plan, conn * 2 + 1);
            serve(guard, reader, writer)
        }
        None => serve(guard, read_half, stream),
    }
}

/// Serves one connection over any transport: the `Hello` greeting, then
/// rounds until the peer, the idle reaper or the daemon's shutdown ends it
/// at a frame boundary. Past the in-flight cap each request is answered
/// `Rejected` without executing. Returning drops `guard`, closing the
/// session.
fn serve<S: Read, W: Write>(
    mut guard: SessionGuard,
    transport: S,
    sink: W,
) -> Result<(), ServiceError> {
    let state = Arc::clone(&guard.state);
    let counters = state.network.counters();
    let mut writer = BufWriter::new(sink);
    let mut reader = BufReader::new(PatientStream::new(
        transport,
        &state.shutdown,
        state.options.idle_timeout,
    ));
    let (mut out, mut scratch, mut round) = (Vec::new(), Vec::new(), Vec::new());
    // A corrupt or foreign-version request is counted, then closes the
    // connection.
    let mut read = |reader: &mut BufReader<_>| {
        read_frame(reader, &mut scratch).inspect_err(|e| {
            if matches!(e, CorruptFrame { .. } | VersionMismatch { .. }) {
                MetricCounters::bump(&counters.frames_corrupt);
            }
        })
    };
    let schema_json = serde_json::to_string(state.network.schema())
        .map_err(|e| ServiceError::Io(e.to_string()))?;
    encode_frame(&Frame::Hello { schema_json }, &mut out);
    send(&mut writer, &out, true)?;

    let cap = state.options.max_inflight;
    let mut inflight = 0usize;
    loop {
        // Peek for data so a clean disconnect (EOF at a frame boundary,
        // including our own shutdown and the idle reaper) ends the loop
        // without an error.
        if reader.fill_buf()?.is_empty() {
            send(&mut writer, &[], true)?;
            if reader.get_ref().reaped {
                MetricCounters::bump(&counters.connections_evicted);
            }
            if reader.get_ref().shutdown_eof {
                guard.cause = Close::Daemon;
            }
            return Ok(());
        }
        let request = read(&mut reader)?;
        out.clear();
        if cap != 0 && inflight >= cap {
            MetricCounters::bump(&counters.connections_rejected);
            inflight += 1;
            let reason = format!("in-flight cap reached ({cap} unflushed responses)");
            append_frame(&Frame::Rejected { reason }, &mut out);
        } else {
            // Drain every *fully buffered* Publish frame for the same
            // broker into the round, never blocking on a partial frame and
            // never crossing the in-flight cap: frames beyond it stay
            // buffered and are answered `Rejected` one by one.
            let burst = match request {
                Frame::Publish { at, .. } => Some(at),
                _ => None,
            };
            round.push(request);
            while burst.is_some()
                && (cap == 0 || inflight + round.len() < cap)
                && buffered_publish(reader.buffer()) == burst
            {
                round.push(read(&mut reader)?);
            }
            inflight += round.len();
            guard.session.on_round(&state, &mut round, &mut out)?;
        }
        let idle = reader.buffer().is_empty();
        send(&mut writer, &out, idle)?;
        if idle {
            inflight = 0;
        }
    }
}

/// Writes `bytes` through the buffered writer and flushes it when `flush`
/// says so.
fn send<W: Write>(writer: &mut W, bytes: &[u8], flush: bool) -> Result<(), ServiceError> {
    writer.write_all(bytes)?;
    if flush {
        writer.flush()?;
    }
    Ok(())
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
    /// Whether the last EOF was the idle reaper's, not the peer's.
    reaped: bool,
    /// Whether the last EOF was the daemon's shutdown flag's: a teardown,
    /// not a vanished peer.
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
    use crate::lock::Root;
    use crate::session::tests::{durable_ids, responses, state_with, test_network};
    use acd_covering::CoveringPolicy;
    use acd_subscription::{Event, SubscriptionBuilder};

    fn daemon(policy: CoveringPolicy) -> BrokerDaemon {
        let options = DaemonOptions {
            workers: 2,
            ..DaemonOptions::default()
        };
        BrokerDaemon::start_with(test_network(policy), "127.0.0.1:0", options).unwrap()
    }

    /// Admits connection `conn` the way the accept loop does.
    fn admit(state: &Arc<DaemonState>, conn: u64) -> SessionGuard {
        SessionGuard::admit(Arc::clone(state), conn)
    }

    /// Encodes `frames` as one pipelined request stream.
    fn requests(frames: &[Frame]) -> Vec<u8> {
        let mut buf = Vec::new();
        for frame in frames {
            append_frame(frame, &mut buf);
        }
        buf
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
        assert_eq!(daemon.network().audit(), []);
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
        serve(admit(&state, 1), burst.as_slice(), &mut sink).unwrap();
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
        assert!(!patient.reaped);
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
        assert!(patient.reaped, "EOF must be attributed to the reaper");
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
        serve(admit(&state, 1), transport, &mut sink).unwrap();
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
        serve(admit(&state, 1), transport, &mut sink).unwrap();
        assert_eq!(state.network.metrics().routing_table_entries, 0);
        assert_eq!(
            durable_ids(&state),
            [],
            "the vanished client's registration must not survive into the shutdown snapshot"
        );
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
                let live = self
                    .state
                    .ledger
                    .lock(Root::mint().token())
                    .0
                    .sessions
                    .len();
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
            serve(session, transport, Vec::new())
        }));
        assert!(outcome.is_err(), "the transport panic must propagate");
        assert_eq!(
            sessions_seen.load(Ordering::SeqCst),
            1,
            "the subscribe must have registered before the panic"
        );
        assert!(
            state
                .ledger
                .lock(Root::mint().token())
                .0
                .sessions
                .is_empty(),
            "sessions drained"
        );
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
        let result = serve(admit(&state, 1), garbage.as_slice(), &mut sink);
        assert!(matches!(result, Err(ServiceError::CorruptFrame { .. })));
        assert_eq!(state.network.metrics().frames_corrupt, 1);
        assert_eq!(
            state.network.metrics().events_published,
            0,
            "a corrupt request must not execute"
        );
    }
}
